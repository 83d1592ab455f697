package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// carve generates a corpus and splits off the tail as live ingest traffic.
func carve(t *testing.T, live int) (*dataset.Dataset, *dataset.Dataset, []dataset.Post, *annotate.Site) {
	t.Helper()
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Posts) <= live {
		t.Fatalf("corpus too small: %d posts", len(ds.Posts))
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	cut := len(ds.Posts) - live
	return ds, ds.Prefix(cut), ds.Posts[cut:], site
}

// harness builds the base engine, publishes it into an atomic slot, and
// wires an Ingestor's Match/Publish/Rebind hooks to that slot — the in-process
// stand-in for HotEngine.Swap.
func harness(t *testing.T, base *dataset.Dataset, site *annotate.Site, cfg Config) (*Ingestor, *atomic.Pointer[pipeline.BuildResult], pipeline.Config) {
	t.Helper()
	pcfg := pipeline.DefaultConfig()
	b, err := pipeline.Build(context.Background(), base, site, pcfg, nil)
	if err != nil {
		t.Fatalf("base Build: %v", err)
	}
	var cur atomic.Pointer[pipeline.BuildResult]
	cur.Store(b)
	cfg.Match = func(ctx context.Context, h phash.Hash) (bool, error) {
		_, ok, err := cur.Load().MatchCtx(ctx, h)
		return ok, err
	}
	cfg.Publish = func(nb *pipeline.BuildResult) { cur.Store(nb) }
	cfg.Rebind = func(ds *dataset.Dataset) { cur.Store(cur.Load().Rebind(ds)) }
	inc, err := pipeline.NewIncremental(base, site, pcfg)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	g, err := New(inc, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { g.Close() })
	return g, &cur, pcfg
}

// saveBytes serialises a build for bitwise comparison.
func saveBytes(t *testing.T, b *pipeline.BuildResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestIngestDeterminism is the subsystem's core invariant: ingesting the
// live tail in batches and re-clustering ends bitwise-identical to a
// from-scratch build over the union corpus.
func TestIngestDeterminism(t *testing.T) {
	full, base, live, site := carve(t, 120)
	g, cur, pcfg := harness(t, base, site, Config{Threshold: 1 << 20})
	ctx := context.Background()

	ref, err := pipeline.Build(ctx, full, site, pcfg, nil)
	if err != nil {
		t.Fatalf("union Build: %v", err)
	}
	want := saveBytes(t, ref)

	cuts := []int{0, len(live) / 3, 2 * len(live) / 3, len(live)}
	for bi := 1; bi < len(cuts); bi++ {
		batch := live[cuts[bi-1]:cuts[bi]]
		r, err := g.Ingest(ctx, batch)
		if err != nil {
			t.Fatalf("Ingest batch %d: %v", bi, err)
		}
		if r.Accepted != len(batch) {
			t.Fatalf("batch %d: accepted %d of %d", bi, r.Accepted, len(batch))
		}
		if err := g.Recluster(ctx); err != nil {
			t.Fatalf("Recluster %d: %v", bi, err)
		}
	}
	if got := saveBytes(t, cur.Load()); !bytes.Equal(got, want) {
		t.Error("ingested engine diverges from a from-scratch build over the union corpus")
	}
	st := g.Stats()
	if st.Seq != uint64(len(live)) || st.Ingested != int64(len(live)) || st.Pool != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
	if st.Reclusters == 0 {
		t.Error("no re-clusters recorded")
	}
}

// plantNovelEntry appends a synthetic KYM entry whose single gallery hash is
// far from every existing post and gallery hash: a meme the site knows about
// but nobody has posted yet. Five ingested copies of the returned hash form
// an isolated singleton cluster that annotates against the planted entry —
// servable only after a re-cluster, never before.
func plantNovelEntry(t *testing.T, ds *dataset.Dataset) phash.Hash {
	t.Helper()
	var existing []phash.Hash
	for i := range ds.Posts {
		if ds.Posts[i].HasImage {
			existing = append(existing, ds.Posts[i].PHash())
		}
	}
	for _, e := range ds.KYMEntries {
		for _, g := range e.Gallery {
			existing = append(existing, phash.Hash(g))
		}
	}
	for k := uint64(1); k < 1<<20; k++ {
		h := phash.Hash(k * 0x9E3779B97F4A7C15)
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

// TestIngestTriggerServesNewPosts exercises the full streaming loop: posts
// that nothing matches park as pending, crossing the threshold starts the
// background re-cluster, and the posts become servable through the
// published engine without any restart.
func TestIngestTriggerServesNewPosts(t *testing.T) {
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	h := plantNovelEntry(t, ds)
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	g, cur, _ := harness(t, ds, site, Config{Threshold: 5})
	ctx := context.Background()
	if _, ok, err := cur.Load().MatchCtx(ctx, h); err != nil || ok {
		t.Fatalf("novel hash already matches (ok=%v, err=%v)", ok, err)
	}
	posts := make([]dataset.Post, 5)
	for i := range posts {
		posts[i] = dataset.Post{
			ID:        9_000_000 + int64(i),
			Community: dataset.Pol,
			Timestamp: time.Unix(0, 0).UTC(),
			HasImage:  true,
			Hash:      uint64(h),
			TruthMeme: -1,
			TruthRoot: -1,
		}
	}
	r, err := g.Ingest(ctx, posts)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !r.Triggered || r.Assigned != 0 || r.Pending != 5 {
		t.Fatalf("receipt = %+v, want triggered with 5 pending", r)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, ok, err := cur.Load().MatchCtx(ctx, h); err == nil && ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested hash never became servable; stats %+v", g.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := g.Stats()
	if st.Reclusters == 0 || st.Ingested != 5 {
		t.Errorf("stats after trigger: %+v", st)
	}

	// The follow-up ingest of the same hash is assigned immediately.
	dup := posts[0]
	dup.ID = 9_000_100
	r, err = g.Ingest(ctx, []dataset.Post{dup})
	if err != nil {
		t.Fatalf("duplicate Ingest: %v", err)
	}
	if r.Assigned != 1 {
		t.Errorf("duplicate receipt = %+v, want assigned", r)
	}
}

// TestIngestJournalReplay pins the restart path: a fresh process replaying
// the journal over the base corpus converges on the exact engine the first
// process published.
func TestIngestJournalReplay(t *testing.T) {
	_, base, live, site := carve(t, 80)
	dir := t.TempDir()
	g, cur, _ := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir})
	ctx := context.Background()

	for _, cut := range [][2]int{{0, len(live) / 2}, {len(live) / 2, len(live)}} {
		if _, err := g.Ingest(ctx, live[cut[0]:cut[1]]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := g.Recluster(ctx); err != nil {
			t.Fatalf("Recluster: %v", err)
		}
	}
	want := saveBytes(t, cur.Load())
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g2, cur2, _ := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir})
	n, err := g2.Replay(ctx, 0)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(live) {
		t.Errorf("replayed %d posts, want %d", n, len(live))
	}
	if got := saveBytes(t, cur2.Load()); !bytes.Equal(got, want) {
		t.Error("replayed engine diverges from the pre-restart engine")
	}
	if st := g2.Stats(); st.Seq != uint64(len(live)) {
		t.Errorf("replayed seq = %d, want %d", st.Seq, len(live))
	}
}

// TestIngestCompaction pins the journal-folding path: after compaction the
// delta dir holds a base snapshot that is bitwise a from-scratch build over
// the union corpus plus one merged head frame, old segments are gone, and a
// restart from the compacted state replays cleanly.
func TestIngestCompaction(t *testing.T) {
	full, base, live, site := carve(t, 60)
	dir := t.TempDir()
	g, _, pcfg := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir, CompactAfter: 1})
	ctx := context.Background()

	half := len(live) / 2
	for _, cut := range [][2]int{{0, half}, {half, len(live)}} {
		if _, err := g.Ingest(ctx, live[cut[0]:cut[1]]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := g.Recluster(ctx); err != nil {
			t.Fatalf("Recluster: %v", err)
		}
	}
	st := g.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}

	path, seq, ok, err := LatestBase(dir)
	if err != nil || !ok {
		t.Fatalf("LatestBase: ok=%v err=%v", ok, err)
	}
	if seq != uint64(len(live)) {
		t.Errorf("base folds seq %d, want %d", seq, len(live))
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading base snapshot: %v", err)
	}
	ref, err := pipeline.Build(ctx, full, site, pcfg, nil)
	if err != nil {
		t.Fatalf("union Build: %v", err)
	}
	if !bytes.Equal(snap, saveBytes(t, ref)) {
		t.Error("compacted base snapshot diverges from a from-scratch union build")
	}

	segs, err := journalSegments(dir)
	if err != nil {
		t.Fatalf("journalSegments: %v", err)
	}
	if len(segs) != 1 || segs[0] != "delta-0000000000000000.dlt" {
		t.Errorf("post-compaction segments = %v, want the merged head only", segs)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart from the compacted state, loaded over the base corpus as a
	// booting server does: the journal covers exactly what the base folds,
	// so replay rebinds the loaded clusters to the union corpus — no
	// re-cluster, and every replayed post in the corpus the analysis reads.
	g2, cur2, _ := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir})
	loaded, err := pipeline.LoadBuild(bytes.NewReader(snap), site, base, nil, nil)
	if err != nil {
		t.Fatalf("LoadBuild: %v", err)
	}
	cur2.Store(loaded)
	n, err := g2.Replay(ctx, seq)
	if err != nil {
		t.Fatalf("Replay after compaction: %v", err)
	}
	if n != len(live) {
		t.Errorf("replayed %d posts, want %d", n, len(live))
	}
	served := cur2.Load()
	if !bytes.Equal(saveBytes(t, served), snap) {
		t.Error("replay changed the clusters although the base already folds the journal")
	}
	if !reflect.DeepEqual(served.Dataset.Posts, full.Posts) {
		t.Errorf("served corpus holds %d posts after replay, want the union's %d", len(served.Dataset.Posts), len(full.Posts))
	}
	if st := g2.Stats(); st.Reclusters != 0 {
		t.Errorf("replay re-clustered %d times, want a rebind", st.Reclusters)
	}
	// One more ingested batch after the restart still converges.
	extra := live[:0:0]
	if err := g2.Recluster(ctx); err != nil {
		t.Fatalf("idle Recluster: %v", err)
	}
	_ = extra
}

// TestIngestBackpressureAndValidation pins the rejection paths: pool
// overflow, invalid communities, and ingest-after-close. Rejected batches
// must leave no trace — no journal frame, no sequence advance.
func TestIngestBackpressureAndValidation(t *testing.T) {
	_, base, live, site := carve(t, 20)
	dir := t.TempDir()
	g, _, _ := harness(t, base, site, Config{Threshold: 1 << 20, MaxPending: 4, DeltaDir: dir})
	ctx := context.Background()

	if _, err := g.Ingest(ctx, live[:5]); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("overflow ingest err = %v, want ErrPoolFull", err)
	}
	st := g.Stats()
	if st.Rejected != 5 || st.Seq != 0 || st.Pool != 0 {
		t.Errorf("stats after rejection: %+v", st)
	}
	segs, err := journalSegments(dir)
	if err != nil || len(segs) != 0 {
		t.Errorf("rejected batch left journal segments %v (err %v)", segs, err)
	}

	bad := live[0]
	bad.Community = dataset.Community(99)
	if _, err := g.Ingest(ctx, []dataset.Post{bad}); err == nil {
		t.Error("invalid community accepted")
	}

	if _, err := g.Ingest(ctx, live[:2]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := g.Ingest(ctx, live[2:4]); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close ingest err = %v, want ErrClosed", err)
	}
}

// TestIngestMatchedRepostsDrainThePool pins the pool-full livelock away: a
// stream of re-posts of images that already match never raises the
// re-cluster trigger (nothing in it needs a new cluster), yet every post
// still occupies the pool until a re-cluster folds it in. A batch refused
// for a full pool must therefore schedule the drain, so a client that
// retries its refused batches gets every one accepted.
func TestIngestMatchedRepostsDrainThePool(t *testing.T) {
	_, base, _, site := carve(t, 1)
	g, cur, _ := harness(t, base, site, Config{Threshold: 5}) // MaxPending 40
	ctx := context.Background()

	var reposts []dataset.Post
	for i := 0; len(reposts) < 200 && i < len(base.Posts); i++ {
		p := base.Posts[i]
		if !p.HasImage {
			continue
		}
		if _, ok, err := cur.Load().MatchCtx(ctx, p.PHash()); err != nil || !ok {
			continue
		}
		p.ID = int64(1_000_000_000 + len(reposts))
		reposts = append(reposts, p)
	}
	if len(reposts) < 200 {
		t.Fatalf("only %d matching image posts in the base corpus", len(reposts))
	}

	refused := 0
	for b := 0; b < 20; b++ {
		batch := reposts[b*10 : (b+1)*10]
		for {
			_, err := g.Ingest(ctx, batch)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrPoolFull) {
				t.Fatalf("batch %d: %v", b, err)
			}
			refused++
			// With no drain in flight and the pool still too full, no retry
			// can ever succeed: that is the livelock.
			g.mu.Lock()
			stuck := !g.inFlight && len(g.pool)+len(batch) > g.cfg.MaxPending
			g.mu.Unlock()
			if stuck {
				t.Fatalf("batch %d refused with no drain scheduled; stats %+v", b, g.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	if refused == 0 {
		t.Fatal("no batch was refused: the pool never filled, so the test proves nothing")
	}
	// The tail below MaxPending waits for the next trigger like any pooled
	// post; a synchronous re-cluster folds it in.
	if err := g.Recluster(ctx); err != nil {
		t.Fatalf("Recluster: %v", err)
	}
	st := g.Stats()
	if st.Ingested != 200 || st.Assigned != 200 || st.Pool != 0 || st.Reclusters == 0 {
		t.Errorf("stats after the stream: %+v", st)
	}
	if got, want := len(cur.Load().Dataset.Posts), len(base.Posts)+200; got != want {
		t.Errorf("published corpus holds %d posts, want base + 200 = %d", got, want)
	}
}

// TestIngestConfigValidation pins the constructor contract.
func TestIngestConfigValidation(t *testing.T) {
	_, base, _, site := carve(t, 5)
	inc, err := pipeline.NewIncremental(base, site, pipeline.DefaultConfig())
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil incremental state accepted")
	}
	if _, err := New(inc, Config{}); err == nil {
		t.Error("missing hooks accepted")
	}
}

// TestLatestBaseMissingDir pins the fresh-boot path: no dir, no base, no
// error.
func TestLatestBaseMissingDir(t *testing.T) {
	_, _, ok, err := LatestBase(filepath.Join(t.TempDir(), "nope"))
	if err != nil || ok {
		t.Errorf("LatestBase on missing dir: ok=%v err=%v", ok, err)
	}
}

// TestIngestReplayRepairsTornAndEmptyTails pins the two crash signatures a
// dying append can leave in the active segment — a torn half-written frame
// and a zero-byte file opened but never written — and the regression that an
// unremoved empty segment makes the next append's O_EXCL create collide.
// After each repair, further appends must keep the bitwise determinism
// contract.
func TestIngestReplayRepairsTornAndEmptyTails(t *testing.T) {
	full, base, live, site := carve(t, 60)
	dir := t.TempDir()
	ctx := context.Background()

	// checkpoint asserts the published build is bitwise a from-scratch build
	// over the base corpus plus the first n live posts.
	var pcfg pipeline.Config
	checkpoint := func(t *testing.T, cur *atomic.Pointer[pipeline.BuildResult], n int) {
		t.Helper()
		ref, err := pipeline.Build(ctx, full.Prefix(len(base.Posts)+n), site, pcfg, nil)
		if err != nil {
			t.Fatalf("reference Build: %v", err)
		}
		if !bytes.Equal(saveBytes(t, cur.Load()), saveBytes(t, ref)) {
			t.Errorf("engine diverges bitwise from a from-scratch build over base + %d live posts", n)
		}
	}

	g, _, pc := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir})
	pcfg = pc
	if _, err := g.Ingest(ctx, live[:20]); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := g.Recluster(ctx); err != nil {
		t.Fatalf("Recluster: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash signature 1: the process died mid-append, leaving garbage after
	// the last durable frame of the active segment.
	segs, err := journalSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("journalSegments: %v (%d segments)", err, len(segs))
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("torn mid-frame garbage")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	g2, cur2, _ := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir})
	n, err := g2.Replay(ctx, 0)
	if err != nil {
		t.Fatalf("Replay over torn tail: %v", err)
	}
	if n != 20 {
		t.Errorf("replayed %d posts, want 20 (the durable frame)", n)
	}
	st := g2.Stats()
	if st.TornTails != 1 || st.Seq != 20 {
		t.Errorf("stats after torn replay = %+v, want 1 torn tail at seq 20", st)
	}
	checkpoint(t, cur2, 20)

	// The repaired segment must accept further appends.
	if _, err := g2.Ingest(ctx, live[20:40]); err != nil {
		t.Fatalf("post-repair Ingest: %v", err)
	}
	if err := g2.Recluster(ctx); err != nil {
		t.Fatalf("post-repair Recluster: %v", err)
	}
	checkpoint(t, cur2, 40)
	if err := g2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Crash signature 2: the process died between O_EXCL-opening a fresh
	// segment and writing its first frame. The empty file squats on the name
	// the next append will recreate; replay must remove it.
	empty := filepath.Join(dir, fmt.Sprintf("delta-%016d.dlt", 40))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	g3, cur3, _ := harness(t, base, site, Config{Threshold: 1 << 20, DeltaDir: dir})
	n, err = g3.Replay(ctx, 0)
	if err != nil {
		t.Fatalf("Replay over empty tail: %v", err)
	}
	if n != 40 {
		t.Errorf("replayed %d posts, want 40", n)
	}
	if st := g3.Stats(); st.Seq != 40 || st.TornTails != 0 {
		t.Errorf("stats after empty-tail replay = %+v, want seq 40 and no torn tails", st)
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Errorf("empty segment survived replay (stat err = %v)", err)
	}
	// The regression: appending must not collide with the removed name.
	if _, err := g3.Ingest(ctx, live[40:60]); err != nil {
		t.Fatalf("post-removal Ingest: %v", err)
	}
	if err := g3.Recluster(ctx); err != nil {
		t.Fatalf("post-removal Recluster: %v", err)
	}
	checkpoint(t, cur3, 60)
}
