package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/memes-pipeline/memes/internal/phash"
)

// hashFromUint converts a serialised hash back to a phash.Hash.
func hashFromUint(h uint64) phash.Hash { return phash.Hash(h) }

// PHash returns the post's perceptual hash as a phash.Hash.
func (p Post) PHash() phash.Hash { return phash.Hash(p.Hash) }

// manifest is the top-level metadata written alongside the post stream.
type manifest struct {
	Start                time.Time   `json:"start"`
	End                  time.Time   `json:"end"`
	Memes                []MemeSpec  `json:"memes"`
	KYMEntries           []KYMEntry  `json:"kym_entries"`
	PostTotals           map[int]int `json:"post_totals"`
	GroundTruthInfluence [][]float64 `json:"ground_truth_influence"`
}

// Save writes the dataset to a directory: a manifest.json with metadata and
// a posts.jsonl stream with one post per line. The directory is created if
// needed.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: creating %s: %w", dir, err)
	}
	m := manifest{
		Start:                d.Start,
		End:                  d.End,
		Memes:                d.Memes,
		KYMEntries:           d.KYMEntries,
		PostTotals:           make(map[int]int, len(d.PostTotals)),
		GroundTruthInfluence: d.GroundTruthInfluence,
	}
	for c, n := range d.PostTotals {
		m.PostTotals[int(c)] = n
	}
	manifestBytes, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: encoding manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifestBytes, 0o644); err != nil {
		return fmt.Errorf("dataset: writing manifest: %w", err)
	}

	f, err := os.Create(filepath.Join(dir, "posts.jsonl"))
	if err != nil {
		return fmt.Errorf("dataset: creating posts file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var line []byte
	for i := range d.Posts {
		if line, err = AppendPost(line[:0], &d.Posts[i]); err != nil {
			return fmt.Errorf("dataset: encoding post %d: %w", i, err)
		}
		line = append(line, '\n')
		w.Write(line) // a failed write sticks and surfaces from Flush
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("dataset: flushing posts: %w", err)
	}
	return f.Close()
}

// Load reads a dataset previously written with Save.
func Load(dir string) (*Dataset, error) {
	manifestBytes, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(manifestBytes, &m); err != nil {
		return nil, fmt.Errorf("dataset: decoding manifest: %w", err)
	}
	d := &Dataset{
		Start:                m.Start,
		End:                  m.End,
		Memes:                m.Memes,
		KYMEntries:           m.KYMEntries,
		PostTotals:           make(map[Community]int, len(m.PostTotals)),
		GroundTruthInfluence: m.GroundTruthInfluence,
	}
	for c, n := range m.PostTotals {
		d.PostTotals[Community(c)] = n
	}

	f, err := os.Open(filepath.Join(dir, "posts.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("dataset: opening posts: %w", err)
	}
	defer f.Close()
	if d.Posts, err = readPosts(bufio.NewReaderSize(f, 64<<10)); err != nil {
		return nil, err
	}
	return d, nil
}

// readPosts reads a posts.jsonl stream. Lines in the canonical form Save
// writes take the PostParser fast path; at the first line that does not, the
// rest of the stream is handed to json.Decoder, which reads any sequence of
// JSON values and words every error.
func readPosts(br *bufio.Reader) ([]Post, error) {
	var (
		posts  []Post
		parser PostParser
	)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return nil, fmt.Errorf("dataset: reading posts: %w", err)
		}
		if len(line) == 0 && err == io.EOF {
			return posts, nil
		}
		var p Post
		if n, ok := parser.Parse(line, &p); !ok || (n != len(line) && string(line[n:]) != "\n") {
			// ReadSlice's bytes die with the next read: copy them.
			rest := io.MultiReader(bytes.NewReader(bytes.Clone(line)), br)
			return decodePosts(posts, json.NewDecoder(rest))
		}
		if posts, err = appendValid(posts, p); err != nil {
			return nil, err
		}
	}
}

// decodePosts appends every remaining post of a JSON value stream.
func decodePosts(posts []Post, dec *json.Decoder) ([]Post, error) {
	for {
		var p Post
		if err := dec.Decode(&p); err == io.EOF {
			return posts, nil
		} else if err != nil {
			return nil, fmt.Errorf("dataset: decoding post: %w", err)
		}
		var err error
		if posts, err = appendValid(posts, p); err != nil {
			return nil, err
		}
	}
}

func appendValid(posts []Post, p Post) ([]Post, error) {
	if !p.Community.Valid() {
		return nil, fmt.Errorf("dataset: post %d has invalid community %d", p.ID, p.Community)
	}
	return append(posts, p), nil
}

// Stats summarises the dataset per platform, mirroring Table 1.
type Stats struct {
	Platform        string
	Posts           int
	PostsWithImages int
	Images          int
	UniquePHashes   int
}

// PlatformStats computes the Table 1 rows of the dataset: one row per
// hosting platform (The Donald is folded into Reddit).
func (d *Dataset) PlatformStats() []Stats {
	type agg struct {
		posts, withImages int
		hashes            map[uint64]struct{}
	}
	byPlatform := map[string]*agg{}
	platformOrder := []string{"Twitter", "Reddit", "/pol/", "Gab"}
	for _, p := range platformOrder {
		byPlatform[p] = &agg{hashes: make(map[uint64]struct{})}
	}
	for comm, total := range d.PostTotals {
		byPlatform[comm.Platform()].posts += total
	}
	for i := range d.Posts {
		post := &d.Posts[i]
		a := byPlatform[post.Community.Platform()]
		if post.HasImage {
			a.withImages++
			a.hashes[post.Hash] = struct{}{}
		}
	}
	out := make([]Stats, 0, len(platformOrder))
	for _, p := range platformOrder {
		a := byPlatform[p]
		out = append(out, Stats{
			Platform:        p,
			Posts:           a.posts,
			PostsWithImages: a.withImages,
			Images:          a.withImages,
			UniquePHashes:   len(a.hashes),
		})
	}
	return out
}

// FringeImageHashes returns the image hashes (with occurrence counts) of the
// three fringe communities used to seed the clustering, in first-seen order.
// The returned slices are aligned: hashes[i] occurred counts[i] times.
func (d *Dataset) FringeImageHashes() (hashes []phash.Hash, counts []int, postIdx map[phash.Hash][]int) {
	index := make(map[phash.Hash]int)
	postIdx = make(map[phash.Hash][]int)
	for i, p := range d.Posts {
		if !p.HasImage || !p.Community.Fringe() {
			continue
		}
		h := p.PHash()
		if at, ok := index[h]; ok {
			counts[at]++
		} else {
			index[h] = len(hashes)
			hashes = append(hashes, h)
			counts = append(counts, 1)
		}
		postIdx[h] = append(postIdx[h], i)
	}
	return hashes, counts, postIdx
}
