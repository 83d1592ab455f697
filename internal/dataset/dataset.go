// Package dataset synthesises the corpora the paper's measurement study was
// run on: posts with images from four Web communities (Twitter, Reddit —
// including The Donald subreddit — 4chan's /pol/, and Gab) over a 13-month
// window, plus a Know Your Meme-style annotation site.
//
// The paper's 160M crawled images cannot be shipped, so the generator
// produces a corpus with the same statistical structure the pipeline and the
// analyses rely on:
//
//   - memes are procedurally rendered image templates; every post of a meme
//     uses a perceptually-near variant of its template, so DBSCAN over
//     perceptual hashes recovers the planted clusters;
//   - one-off "noise" images produce the 60-70% unclustered fraction
//     reported in Table 2;
//   - posting times are driven by a ground-truth multivariate Hawkes process
//     whose community-to-community weights encode the influence structure
//     the paper estimates (/pol/ posts the most memes, The Donald is the
//     most efficient spreader), so the influence estimation of Section 5 can
//     be validated against a known answer;
//   - the KYM site has entries in every category with heavy-tailed gallery
//     sizes, origin metadata, racist/politics tags, and screenshot pollution
//     for Step 4 to remove;
//   - Reddit and Gab posts carry scores whose distributions differ between
//     political/racist and other memes, reproducing the shape of Figure 9;
//   - Reddit posts carry subreddit labels with The Donald dominant
//     (Table 6).
package dataset

import (
	"fmt"
	"time"
)

// Community identifies one of the Web communities in the study. The values
// double as the process indexes of the Hawkes models, matching the paper's
// five-process setup (/pol/, Reddit, Twitter, Gab, The Donald), where
// "Reddit" means Reddit excluding The Donald.
type Community int

// The five communities of the study.
const (
	Pol Community = iota
	Reddit
	Twitter
	Gab
	TheDonald
	numCommunities
)

// NumCommunities is the number of communities (Hawkes processes).
const NumCommunities = int(numCommunities)

// String returns the paper's display name for the community.
func (c Community) String() string {
	switch c {
	case Pol:
		return "/pol/"
	case Reddit:
		return "Reddit"
	case Twitter:
		return "Twitter"
	case Gab:
		return "Gab"
	case TheDonald:
		return "The_Donald"
	default:
		return fmt.Sprintf("Community(%d)", int(c))
	}
}

// Communities lists all communities in process-index order.
func Communities() []Community {
	return []Community{Pol, Reddit, Twitter, Gab, TheDonald}
}

// Valid reports whether c is a known community.
func (c Community) Valid() bool { return c >= 0 && c < numCommunities }

// Fringe reports whether the community is one of the three fringe
// communities used to seed the clustering (/pol/, Gab, The Donald).
func (c Community) Fringe() bool { return c == Pol || c == Gab || c == TheDonald }

// Platform returns the hosting platform of the community: The Donald posts
// live on Reddit, every other community is its own platform. Table 1 is
// reported per platform.
func (c Community) Platform() string {
	if c == TheDonald {
		return "Reddit"
	}
	return c.String()
}

// Post is a single post on a Web community. Only posts with images are
// materialised with a Hash; posts without images are accounted for in the
// per-community totals of the dataset.
type Post struct {
	// ID is a unique post identifier.
	ID int64 `json:"id"`
	// Community is where the post appeared.
	Community Community `json:"community"`
	// Subreddit is set for Reddit and The Donald posts.
	Subreddit string `json:"subreddit,omitempty"`
	// Timestamp is the posting time.
	Timestamp time.Time `json:"timestamp"`
	// HasImage reports whether the post carries an image.
	HasImage bool `json:"has_image"`
	// Hash is the perceptual hash of the post's image (valid when HasImage).
	Hash uint64 `json:"phash,omitempty"`
	// Score is the community voting score (Reddit, The Donald and Gab only).
	Score int `json:"score,omitempty"`
	// TruthMeme is the ground-truth meme index the image belongs to, or -1
	// for one-off noise images. It is never consulted by the pipeline; it
	// exists so experiments can measure recovery accuracy.
	TruthMeme int `json:"truth_meme"`
	// TruthRoot is the ground-truth root-cause community of the posting
	// cascade this post belongs to, or -1 for noise posts.
	TruthRoot int `json:"truth_root"`
}

// MemeSpec describes one planted meme: its KYM identity, content flags, and
// the ground-truth Hawkes dynamics of its spread.
type MemeSpec struct {
	// Index is the meme's position in Dataset.Memes.
	Index int
	// EntryName is the KYM entry the meme belongs to. Several memes may
	// share an entry (the paper observes up to 124 clusters per entry).
	EntryName string
	// Category is the KYM category of the entry.
	Category string
	// Racist and Political flag membership in the tag groups of §4.2.1.
	Racist    bool
	Political bool
	// TemplateSeed identifies the procedural image template.
	TemplateSeed int64
	// VariantHashes is the pool of perceptual hashes of the meme's rendered
	// variants; posts sample from this pool.
	VariantHashes []uint64
	// Popularity scales the meme's overall posting rate.
	Popularity float64
}

// Dataset is a fully generated corpus.
type Dataset struct {
	// Posts holds every post, across all communities, sorted by time.
	Posts []Post
	// Memes describes the planted memes.
	Memes []MemeSpec
	// KYMEntries are the synthetic annotation-site entries (see kym.go for
	// conversion to an annotate.Site).
	KYMEntries []KYMEntry
	// Start and End bound the observation window.
	Start, End time.Time
	// PostTotals is the total number of posts per community including posts
	// without images (Table 1's first column).
	PostTotals map[Community]int
	// GroundTruthInfluence is the community-to-community Hawkes weight
	// matrix used to drive meme spreading, recorded for validation.
	GroundTruthInfluence [][]float64
}

// Prefix returns a copy of d holding only its first n posts, with
// PostTotals reduced by every post it drops, so that streaming the dropped
// posts back in (pipeline.Incremental's union adds each to the totals)
// gives d's totals again. It is how a crawl is split into a base corpus and
// the posts that arrive after it. The copy shares d's post storage, capped
// at n so an append never writes into d.
func (d *Dataset) Prefix(n int) *Dataset {
	c := *d
	c.Posts = d.Posts[:n:n]
	c.PostTotals = make(map[Community]int, len(d.PostTotals))
	for comm, total := range d.PostTotals {
		c.PostTotals[comm] = total
	}
	for i := n; i < len(d.Posts); i++ {
		c.PostTotals[d.Posts[i].Community]--
	}
	return &c
}

// KYMEntry is the serialisable form of an annotation-site entry.
type KYMEntry struct {
	Name     string   `json:"name"`
	Title    string   `json:"title"`
	Category string   `json:"category"`
	Tags     []string `json:"tags"`
	Origin   string   `json:"origin"`
	Year     int      `json:"year"`
	// Gallery holds the perceptual hashes of the entry's image gallery,
	// including screenshot pollution marked in ScreenshotFlags.
	Gallery []uint64 `json:"gallery"`
	// ScreenshotFlags marks which gallery images are social-network
	// screenshots (to be removed by Step 4).
	ScreenshotFlags []bool `json:"screenshot_flags"`
}
