// Package annotate models the meme annotation site (Know Your Meme in the
// paper) and implements cluster annotation: matching cluster medoids to KYM
// entries within a Hamming threshold (Step 5 of the pipeline) and selecting
// a representative entry per cluster.
package annotate

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/memes-pipeline/memes/internal/phash"
)

// Category is the high-level grouping a KYM entry belongs to.
type Category string

// KYM entry categories as described in Section 3.2 of the paper.
const (
	CategoryMeme       Category = "memes"
	CategorySubculture Category = "subcultures"
	CategoryCulture    Category = "cultures"
	CategoryPeople     Category = "people"
	CategoryEvent      Category = "events"
	CategorySite       Category = "sites"
)

// Valid reports whether c is one of the known categories.
func (c Category) Valid() bool {
	switch c {
	case CategoryMeme, CategorySubculture, CategoryCulture, CategoryPeople,
		CategoryEvent, CategorySite:
		return true
	}
	return false
}

// Entry is a single annotation-site entry: a meme, subculture, person, event,
// culture, or site, together with its image gallery (as perceptual hashes),
// tags, and provenance metadata.
type Entry struct {
	// Name is the entry's unique identifier (e.g. "pepe-the-frog").
	Name string
	// Title is the human-readable title (e.g. "Pepe the Frog").
	Title string
	// Category is the entry's high-level category.
	Category Category
	// Tags are the keywords attached to the entry; the racism/politics
	// groupings of Section 4.2.1 are derived from them.
	Tags []string
	// Origin is the platform where the meme was first observed
	// (e.g. "4chan", "youtube", "unknown").
	Origin string
	// Year is the year the entry started.
	Year int
	// Gallery holds the perceptual hashes of the entry's image gallery after
	// screenshot filtering (Step 4).
	Gallery []phash.Hash
}

// Validate reports whether the entry is well formed.
func (e *Entry) Validate() error {
	if e.Name == "" {
		return errors.New("annotate: entry has empty name")
	}
	if !e.Category.Valid() {
		return fmt.Errorf("annotate: entry %q has invalid category %q", e.Name, e.Category)
	}
	return nil
}

// HasTag reports whether the entry carries the given tag (case-insensitive).
func (e *Entry) HasTag(tag string) bool {
	for _, t := range e.Tags {
		if strings.EqualFold(t, tag) {
			return true
		}
	}
	return false
}

// Tag groups used in Section 4.2.1 to classify memes as racist or
// politics-related.
var (
	// RacismTags mark an entry as racism-related.
	RacismTags = []string{"racism", "racist", "antisemitism"}
	// PoliticsTags mark an entry as politics-related.
	PoliticsTags = []string{"politics", "2016 us presidential election",
		"presidential election", "trump", "clinton"}
)

// IsRacist reports whether the entry belongs to the racism-related group.
func (e *Entry) IsRacist() bool { return e.hasAnyTag(RacismTags) }

// IsPolitical reports whether the entry belongs to the politics-related group.
func (e *Entry) IsPolitical() bool { return e.hasAnyTag(PoliticsTags) }

func (e *Entry) hasAnyTag(tags []string) bool {
	for _, t := range tags {
		if e.HasTag(t) {
			return true
		}
	}
	return false
}

// Site is an in-memory annotation site: a collection of entries indexed by
// name and by gallery hash for fast medoid matching.
type Site struct {
	entries []*Entry
	byName  map[string]*Entry
	index   *phash.BKTree
	// hashOwners maps an index into the flat gallery hash list to the entry
	// that owns it; the BK-tree stores those indexes as item IDs.
	hashOwners []*Entry
	hashValues []phash.Hash
}

// NewSite builds a Site from the given entries. Entry names must be unique.
func NewSite(entries []*Entry) (*Site, error) {
	s := &Site{
		byName: make(map[string]*Entry, len(entries)),
		index:  phash.NewBKTree(),
	}
	for _, e := range entries {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.byName[e.Name]; dup {
			return nil, fmt.Errorf("annotate: duplicate entry name %q", e.Name)
		}
		s.byName[e.Name] = e
		s.entries = append(s.entries, e)
		for _, h := range e.Gallery {
			id := int64(len(s.hashOwners))
			s.hashOwners = append(s.hashOwners, e)
			s.hashValues = append(s.hashValues, h)
			s.index.Insert(h, id)
		}
	}
	return s, nil
}

// Entries returns all entries in insertion order.
func (s *Site) Entries() []*Entry { return s.entries }

// Entry returns the entry with the given name, or nil.
func (s *Site) Entry(name string) *Entry { return s.byName[name] }

// NumEntries returns the number of entries on the site.
func (s *Site) NumEntries() int { return len(s.entries) }

// NumGalleryImages returns the total number of gallery hashes indexed.
func (s *Site) NumGalleryImages() int { return len(s.hashValues) }

// CategoryCounts returns the number of entries per category.
func (s *Site) CategoryCounts() map[Category]int {
	out := make(map[Category]int)
	for _, e := range s.entries {
		out[e.Category]++
	}
	return out
}

// OriginCounts returns the number of entries per origin platform.
func (s *Site) OriginCounts() map[string]int {
	out := make(map[string]int)
	for _, e := range s.entries {
		origin := e.Origin
		if origin == "" {
			origin = "unknown"
		}
		out[origin]++
	}
	return out
}

// GallerySizes returns the gallery size of every entry, in entry order.
func (s *Site) GallerySizes() []int {
	out := make([]int, len(s.entries))
	for i, e := range s.entries {
		out[i] = len(e.Gallery)
	}
	return out
}

// EntryMatch records how strongly a single KYM entry matched a cluster
// medoid during annotation.
type EntryMatch struct {
	Entry *Entry
	// Matches is the number of gallery images of the entry within the
	// threshold of the cluster medoid.
	Matches int
	// MatchFraction is Matches divided by the entry's gallery size.
	MatchFraction float64
	// MeanDistance is the mean Hamming distance of the matching gallery
	// images from the medoid.
	MeanDistance float64
}

// Annotation is the full annotation of one cluster: every matching entry and
// the representative one.
type Annotation struct {
	// Matches lists every entry with at least one gallery image within the
	// threshold, ordered by decreasing match fraction (ties by mean distance,
	// then name).
	Matches []EntryMatch
	// Representative is the entry chosen to represent the cluster, nil when
	// no entry matched.
	Representative *Entry
}

// Annotated reports whether at least one entry matched.
func (a Annotation) Annotated() bool { return len(a.Matches) > 0 }

// NamesByCategory returns the names of matched entries of the given category.
func (a Annotation) NamesByCategory(c Category) []string {
	var out []string
	for _, m := range a.Matches {
		if m.Entry.Category == c {
			out = append(out, m.Entry.Name)
		}
	}
	return out
}

// DefaultThreshold is the Hamming threshold θ used by the paper for matching
// medoids to annotation-site images (Step 5) and for associating posts to
// clusters (Step 6).
const DefaultThreshold = 8

// Annotate matches the cluster medoid against every gallery image on the
// site and returns the annotation. threshold is the maximum Hamming distance
// for a gallery image to count as a match (the paper's θ=8).
func (s *Site) Annotate(medoid phash.Hash, threshold int) Annotation {
	if threshold < 0 {
		threshold = DefaultThreshold
	}
	matches := s.index.Radius(medoid, threshold)
	type agg struct {
		count int
		sum   int
	}
	perEntry := make(map[*Entry]*agg)
	for _, m := range matches {
		for _, id := range m.IDs {
			e := s.hashOwners[id]
			a := perEntry[e]
			if a == nil {
				a = &agg{}
				perEntry[e] = a
			}
			a.count++
			a.sum += m.Distance
		}
	}
	var out Annotation
	for e, a := range perEntry {
		frac := 0.0
		if len(e.Gallery) > 0 {
			frac = float64(a.count) / float64(len(e.Gallery))
		}
		out.Matches = append(out.Matches, EntryMatch{
			Entry:         e,
			Matches:       a.count,
			MatchFraction: frac,
			MeanDistance:  float64(a.sum) / float64(a.count),
		})
	}
	sort.Slice(out.Matches, func(i, j int) bool {
		a, b := out.Matches[i], out.Matches[j]
		if a.MatchFraction != b.MatchFraction {
			return a.MatchFraction > b.MatchFraction
		}
		if a.MeanDistance != b.MeanDistance {
			return a.MeanDistance < b.MeanDistance
		}
		return a.Entry.Name < b.Entry.Name
	})
	if len(out.Matches) > 0 {
		out.Representative = out.Matches[0].Entry
	}
	return out
}
