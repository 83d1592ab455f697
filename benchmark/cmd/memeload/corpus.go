//go:build linux

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/benchcorpus"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// The three corpora. Their generator seed is fixed: --seed picks the
// requests drawn from a corpus, not the corpus, so runs on different seeds
// measure the same server state and their spread is measurement noise.
const (
	corpusSmall  = "small"  // benchcorpus.Config(): 64,336 image posts, 147 clusters
	corpusLarge  = "large"  // the same with 2,000 memes: 736,895 posts, 4,698 clusters
	corpusStream = "stream" // small split by timestamp: first half served, second half fed to /v1/ingest
)

// largeMemes is the meme count of the large corpus: enough annotated
// medoids (about 30 times small's) that the BK-tree probe, not JSON,
// dominates an associate request.
const largeMemes = 2000

// corpus is one generated dataset with the engine built over it in process
// (the oracle every served answer is compared with) and, once written, the
// files memeserve boots from.
type corpus struct {
	name   string
	ds     *memes.Dataset
	site   *memes.AnnotationSite
	eng    *memes.Engine
	feed   []memes.Post  // stream only: the posts held back for /v1/ingest
	images []int         // indexes of the served posts that carry an image
	gen    time.Duration // wall time of GenerateDataset
	build  time.Duration // wall time of NewEngine

	dir  string // corpus directory (-in)
	snap string // snapshot file (-load)
}

// makeCorpus generates a corpus and builds its engine.
func makeCorpus(name string) (*corpus, error) {
	cfg := benchcorpus.Config()
	if name == corpusLarge {
		cfg.NumMemes = largeMemes
	}
	start := time.Now()
	ds, err := memes.GenerateDataset(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating %s corpus: %w", name, err)
	}
	c := &corpus{name: name, ds: ds, gen: time.Since(start)}
	if name == corpusStream {
		// Posts are sorted by time, so the split is a cut in the middle: the
		// feed is the natural Hawkes-timed community mix of the later half.
		half := len(ds.Posts) / 2
		base := *ds
		base.Posts = ds.Posts[:half:half]
		c.ds, c.feed = &base, ds.Posts[half:]
	}
	for i := range c.ds.Posts {
		if c.ds.Posts[i].HasImage {
			c.images = append(c.images, i)
		}
	}
	if c.site, err = c.ds.Site(true); err != nil {
		return nil, fmt.Errorf("building %s site: %w", name, err)
	}
	start = time.Now()
	if c.eng, err = memes.NewEngine(context.Background(), c.ds, c.site); err != nil {
		return nil, fmt.Errorf("building %s engine: %w", name, err)
	}
	c.build = time.Since(start)
	return c, nil
}

// write puts the corpus directory and the engine snapshot under dir.
func (c *corpus) write(dir string) error {
	c.dir = filepath.Join(dir, c.name+"-corpus")
	c.snap = filepath.Join(dir, c.name+".snap")
	if err := c.ds.Save(c.dir); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := c.eng.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(c.snap, buf.Bytes(), 0o644)
}

// samplePosts draws n image posts from the corpus, seeded.
func (c *corpus) samplePosts(rng *rand.Rand, n int) []memes.Post {
	out := make([]memes.Post, n)
	for i := range out {
		out[i] = c.ds.Posts[c.images[rng.Intn(len(c.images))]]
	}
	return out
}

// withFeed returns the engine the server must converge on once it has
// absorbed the first n feed posts: the base snapshot with the posts layered
// on as one delta frame, the same public path a restart replays. The
// determinism contract makes it bitwise-equal to what the live ingestor
// publishes after its last re-cluster over those posts.
func (c *corpus) withFeed(n int) (*memes.Engine, error) {
	var snap, delta bytes.Buffer
	if err := c.eng.Save(&snap); err != nil {
		return nil, err
	}
	if err := pipeline.SaveDelta(&delta, &pipeline.Delta{Posts: c.feed[:n]}); err != nil {
		return nil, err
	}
	return memes.LoadEngine(&snap, c.site, memes.WithDataset(c.ds), memes.WithDeltas(&delta))
}
