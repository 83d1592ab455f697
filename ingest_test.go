package memes

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// carveLibCorpus splits the shared test corpus into a base dataset and a
// live tail for ingest traffic.
func carveLibCorpus(t *testing.T, live int) (*Dataset, *Dataset, []Post, *AnnotationSite) {
	t.Helper()
	full, site := engineTestCorpus(t)
	if len(full.Posts) <= live {
		t.Fatalf("corpus too small: %d posts", len(full.Posts))
	}
	cut := len(full.Posts) - live
	return full, full.Prefix(cut), full.Posts[cut:], site
}

// engineBytes serialises an engine for bitwise comparison.
func engineBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestLoadEngineWithDeltas pins the restart contract of the streaming
// ingest path at the library surface: a base snapshot plus the delta
// journal loads into an engine bitwise-identical to a from-scratch build
// over the union corpus.
func TestLoadEngineWithDeltas(t *testing.T) {
	full, base, live, site := carveLibCorpus(t, 90)
	ctx := context.Background()

	ref, err := NewEngine(ctx, full, site)
	if err != nil {
		t.Fatalf("union NewEngine: %v", err)
	}
	want := engineBytes(t, ref)

	baseEng, err := NewEngine(ctx, base, site)
	if err != nil {
		t.Fatalf("base NewEngine: %v", err)
	}
	snap := engineBytes(t, baseEng)

	// Journal the live tail as two frames, the second in its own "segment"
	// reader, plus a stale overlapping frame as a crashed compaction would
	// leave behind.
	half := len(live) / 2
	var seg1, seg2 bytes.Buffer
	if err := pipeline.SaveDelta(&seg1, &pipeline.Delta{FromSeq: 0, Posts: live[:half]}); err != nil {
		t.Fatalf("SaveDelta: %v", err)
	}
	if err := pipeline.SaveDelta(&seg2, &pipeline.Delta{FromSeq: uint64(half), Posts: live[half:]}); err != nil {
		t.Fatalf("SaveDelta: %v", err)
	}
	if err := pipeline.SaveDelta(&seg2, &pipeline.Delta{FromSeq: 0, Posts: live[:half]}); err != nil {
		t.Fatalf("SaveDelta (overlap): %v", err)
	}

	loaded, err := LoadEngine(bytes.NewReader(snap), site,
		WithDataset(base), WithDeltas(&seg1, &seg2))
	if err != nil {
		t.Fatalf("LoadEngine with deltas: %v", err)
	}
	if got := engineBytes(t, loaded); !bytes.Equal(got, want) {
		t.Error("snapshot+deltas engine diverges from a from-scratch build over the union corpus")
	}

	// An empty journal loads the base snapshot unchanged.
	plain, err := LoadEngine(bytes.NewReader(snap), site, WithDataset(base), WithDeltas())
	if err != nil {
		t.Fatalf("LoadEngine without frames: %v", err)
	}
	if got := engineBytes(t, plain); !bytes.Equal(got, snap) {
		t.Error("empty delta journal changed the loaded engine")
	}
}

// TestCarvedBaseKeepsTable1: a base carved with Dataset.Prefix, plus the
// rest of the corpus replayed as a delta journal, reports the full corpus's
// Table 1 byte for byte. Prefix takes the carved-off posts out of
// PostTotals, and the union adds each replayed post back once.
func TestCarvedBaseKeepsTable1(t *testing.T) {
	full, base, live, site := carveLibCorpus(t, 90)
	ctx := context.Background()
	table1 := func(eng *Engine) string {
		t.Helper()
		rep, err := NewReport(eng.Result())
		if err != nil {
			t.Fatalf("NewReport: %v", err)
		}
		text, err := rep.RenderTable1()
		if err != nil {
			t.Fatalf("RenderTable1: %v", err)
		}
		return text
	}

	baseEng, err := NewEngine(ctx, base, site)
	if err != nil {
		t.Fatalf("base NewEngine: %v", err)
	}
	var seg bytes.Buffer
	if err := pipeline.SaveDelta(&seg, &pipeline.Delta{FromSeq: 0, Posts: live}); err != nil {
		t.Fatalf("SaveDelta: %v", err)
	}
	loaded, err := LoadEngine(bytes.NewReader(engineBytes(t, baseEng)), site,
		WithDataset(base), WithDeltas(&seg))
	if err != nil {
		t.Fatalf("LoadEngine with deltas: %v", err)
	}
	ref, err := NewEngine(ctx, full, site)
	if err != nil {
		t.Fatalf("union NewEngine: %v", err)
	}
	if got, want := table1(loaded), table1(ref); got != want {
		t.Errorf("Table 1 of base + replayed posts:\n%s\nwant the full corpus's:\n%s", got, want)
	}
}

// TestWithDeltasValidation pins the option's scoping rules.
func TestWithDeltasValidation(t *testing.T) {
	full, base, live, site := carveLibCorpus(t, 10)
	ctx := context.Background()
	if _, err := NewEngine(ctx, full, site, WithDeltas(&bytes.Buffer{})); err == nil {
		t.Error("NewEngine accepted WithDeltas")
	}
	baseEng, err := NewEngine(ctx, base, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	snap := engineBytes(t, baseEng)
	var seg bytes.Buffer
	if err := pipeline.SaveDelta(&seg, &pipeline.Delta{FromSeq: 0, Posts: live}); err != nil {
		t.Fatalf("SaveDelta: %v", err)
	}
	if _, err := LoadEngine(bytes.NewReader(snap), site, WithDeltas(&seg)); err == nil {
		t.Error("LoadEngine accepted WithDeltas without WithDataset")
	}
}

// plantLibNovelEntry appends a synthetic KYM entry whose gallery hash is far
// from the whole corpus; see the internal/ingest test of the same shape.
func plantLibNovelEntry(t *testing.T, ds *Dataset) Hash {
	t.Helper()
	var existing []Hash
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			existing = append(existing, ds.Posts[i].PHash())
		}
	}
	for _, e := range ds.KYMEntries {
		for _, g := range e.Gallery {
			existing = append(existing, Hash(g))
		}
	}
	for k := uint64(1); k < 1<<20; k++ {
		h := Hash(k * 0x9E3779B97F4A7C15)
		far := true
		for _, x := range existing {
			if phash.Distance(h, x) <= 16 {
				far = false
				break
			}
		}
		if far {
			ds.KYMEntries = append(ds.KYMEntries, dataset.KYMEntry{
				Name:            "synthetic-novel-meme",
				Title:           "Synthetic Novel Meme",
				Category:        "memes",
				Gallery:         []uint64{uint64(h)},
				ScreenshotFlags: []bool{false},
			})
			return h
		}
	}
	t.Fatal("no hash is far from the whole corpus")
	return 0
}

// TestIngestorHotSwapZeroDrops drives the full streaming loop through the
// public API under concurrent query load: unmatched posts trigger the
// background re-cluster, the fresh engine lands via HotEngine.Swap, the new
// posts become servable, and not a single concurrent request fails or loses
// an existing match while the swap happens.
func TestIngestorHotSwapZeroDrops(t *testing.T) {
	ds, err := GenerateDataset(SmallDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	novel := plantLibNovelEntry(t, ds)
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	ctx := context.Background()
	eng, err := NewEngine(ctx, ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	hot := NewHotEngine(eng)
	g, err := NewIngestor(hot, ds, site, IngestConfig{Threshold: 5})
	if err != nil {
		t.Fatalf("NewIngestor: %v", err)
	}
	defer g.Close()

	// A medoid of the base build must keep matching through every swap.
	var resident Hash
	for i := range eng.Clusters() {
		if eng.Clusters()[i].Annotated() {
			resident = eng.Clusters()[i].MedoidHash
			break
		}
	}
	if _, ok, err := hot.Match(ctx, resident); err != nil || !ok {
		t.Fatalf("resident medoid does not match before ingest (ok=%v, err=%v)", ok, err)
	}
	if _, ok, err := hot.Match(ctx, novel); err != nil || ok {
		t.Fatalf("novel hash matches before ingest (ok=%v, err=%v)", ok, err)
	}

	// Hammer the serving path while the ingest-triggered rebuild swaps.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures, requests int64
	var failMu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, ok, err := hot.Match(ctx, resident)
				failMu.Lock()
				requests++
				if err != nil || !ok {
					failures++
				}
				failMu.Unlock()
			}
		}()
	}

	posts := make([]Post, 5)
	for i := range posts {
		posts[i] = Post{
			ID:        9_000_000 + int64(i),
			Community: dataset.Pol,
			Timestamp: time.Unix(0, 0).UTC(),
			HasImage:  true,
			Hash:      uint64(novel),
			TruthMeme: -1,
			TruthRoot: -1,
		}
	}
	r, err := g.Ingest(ctx, posts)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !r.Triggered {
		t.Fatalf("receipt = %+v, want a triggered re-cluster", r)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok, err := hot.Match(ctx, novel); err == nil && ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("novel hash never became servable; stats %+v", g.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Keep the hammer running past the swap until it has real volume, so
	// the zero-failure assertion means something even on a fast rebuild.
	for {
		failMu.Lock()
		n := requests
		failMu.Unlock()
		if n >= 500 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hammer never accumulated volume")
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if failures != 0 {
		t.Errorf("%d of %d concurrent requests failed during the ingest-triggered swap", failures, requests)
	}
	if requests == 0 {
		t.Error("hammer made no requests")
	}
	if gen := hot.Generation(); gen < 2 {
		t.Errorf("generation = %d, want a swap", gen)
	}
}
