package memes

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/pipeline"
)

// engineTestCorpus builds the small corpus and its filtered site once per
// test that needs them.
func engineTestCorpus(t *testing.T) (*Dataset, *AnnotationSite) {
	t.Helper()
	ds, err := GenerateDataset(SmallDatasetConfig())
	if err != nil {
		t.Fatalf("GenerateDataset: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	return ds, site
}

// TestEngineResultMatchesRun asserts the acceptance criterion of the
// build/serve split: Engine.Result() is identical to the one-shot
// pipeline.Run for the same dataset and configuration, in every field except
// Stats (which is documented as the only field that varies between runs).
func TestEngineResultMatchesRun(t *testing.T) {
	ds, site := engineTestCorpus(t)
	legacy, err := pipeline.Run(ds, site, DefaultPipelineConfig())
	if err != nil {
		t.Fatalf("pipeline.Run: %v", err)
	}
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res := eng.Result()
	if res == nil {
		t.Fatal("Engine.Result returned nil")
	}
	if !reflect.DeepEqual(res.Clusters, legacy.Clusters) {
		t.Error("Engine.Result Clusters diverge from pipeline.Run")
	}
	if !reflect.DeepEqual(res.Associations, legacy.Associations) {
		t.Error("Engine.Result Associations diverge from pipeline.Run")
	}
	if !reflect.DeepEqual(res.PerCommunity, legacy.PerCommunity) {
		t.Error("Engine.Result PerCommunity diverges from pipeline.Run")
	}
	if !reflect.DeepEqual(res.Config, legacy.Config) {
		t.Error("Engine.Result Config diverges from pipeline.Run")
	}
	if res.Dataset != ds || res.Site != site {
		t.Error("Engine.Result does not reference the build inputs")
	}
	// Result is materialised once and cached.
	if eng.Result() != res {
		t.Error("Engine.Result not cached across calls")
	}
}

// TestEngineAssociateHeldOutBatch associates a batch that is a strict subset
// of the dataset and checks it returns exactly the associations Result produced
// for those posts (with PostIndex remapped to the batch).
func TestEngineAssociateHeldOutBatch(t *testing.T) {
	ds, site := engineTestCorpus(t)
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res := eng.Result()

	// Hold out every third post.
	var batch []Post
	batchIndex := map[int]int{} // dataset post index -> batch index
	for i := 0; i < len(ds.Posts); i += 3 {
		batchIndex[i] = len(batch)
		batch = append(batch, ds.Posts[i])
	}
	got, err := eng.Associate(context.Background(), batch)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	var want []Association
	for _, a := range res.Associations {
		if bi, ok := batchIndex[a.PostIndex]; ok {
			want = append(want, Association{PostIndex: bi, ClusterID: a.ClusterID, Distance: a.Distance})
		}
	}
	if len(want) == 0 {
		t.Fatal("held-out batch has no expected associations; corpus too small")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("held-out batch associations diverge: got %d, want %d", len(got), len(want))
	}
}

// TestEngineAssociateNewPosts feeds Associate posts that were never part of
// the build dataset; they must be matched through the resident index exactly
// as Match would.
func TestEngineAssociateNewPosts(t *testing.T) {
	ds, site := engineTestCorpus(t)
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	clusters := eng.Clusters()
	var posts []Post
	var wantCluster []int
	for _, c := range clusters {
		if !c.Annotated() {
			continue
		}
		m, ok, err := eng.Match(context.Background(), c.MedoidHash)
		if err != nil || !ok {
			t.Fatalf("Match(medoid of %d) = (%v, %v)", c.ID, ok, err)
		}
		posts = append(posts, Post{ID: int64(1000000 + c.ID), Community: Twitter, HasImage: true, Hash: uint64(c.MedoidHash)})
		wantCluster = append(wantCluster, m.ClusterID)
	}
	if len(posts) == 0 {
		t.Fatal("no annotated clusters to probe")
	}
	assoc, err := eng.Associate(context.Background(), posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	if len(assoc) != len(posts) {
		t.Fatalf("associated %d of %d synthetic posts", len(assoc), len(posts))
	}
	for i, a := range assoc {
		if a.PostIndex != i || a.ClusterID != wantCluster[i] {
			t.Fatalf("synthetic post %d associated to cluster %d, Match says %d", i, a.ClusterID, wantCluster[i])
		}
	}
}

// TestEngineConcurrentQueries hammers one Engine from many goroutines (run
// under -race in CI) and checks every concurrent result is identical to the
// sequential one.
func TestEngineConcurrentQueries(t *testing.T) {
	ds, site := engineTestCorpus(t)
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	batch := ds.Posts[:len(ds.Posts)/2]
	wantAssoc, err := eng.Associate(context.Background(), batch)
	if err != nil {
		t.Fatalf("sequential Associate: %v", err)
	}
	legacy, err := pipeline.Run(ds, site, DefaultPipelineConfig())
	if err != nil {
		t.Fatalf("pipeline.Run: %v", err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			got, err := eng.Associate(ctx, batch)
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(got, wantAssoc) {
				errc <- errors.New("concurrent Associate diverges from sequential result")
				return
			}
			for _, a := range wantAssoc[:min(20, len(wantAssoc))] {
				m, ok, err := eng.Match(ctx, batch[a.PostIndex].PHash())
				if err != nil || !ok || m.ClusterID != a.ClusterID || m.Distance != a.Distance {
					errc <- errors.New("concurrent Match diverges from Associate")
					return
				}
			}
			// Result must be safe to materialise concurrently, and identical
			// to the sequential one-shot pipeline.Run.
			res := eng.Result()
			if !reflect.DeepEqual(res.Associations, legacy.Associations) {
				errc <- errors.New("concurrent Result diverges from pipeline.Run")
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// waitForGoroutines waits for the goroutine count to drop back to the
// baseline, failing the test if it does not within the deadline.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEngineCancelMidBuild cancels the context from the very first progress
// event (the cluster stage start) and asserts NewEngine returns
// context.Canceled promptly without leaking goroutines.
func TestEngineCancelMidBuild(t *testing.T) {
	ds, site := engineTestCorpus(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	_, err := NewEngine(ctx, ds, site, WithProgress(func(ev StageEvent) {
		if !ev.Done {
			cancel() // cancel as the first stage begins: mid-build
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("NewEngine after mid-build cancel: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: build returned after %v", elapsed)
	}
	waitForGoroutines(t, baseline)
}

// TestEngineCancelMidAssociate cancels while a large batch (the corpus
// replicated many times over) streams through Associate and asserts a prompt
// context.Canceled return with no goroutine leak.
func TestEngineCancelMidAssociate(t *testing.T) {
	ds, site := engineTestCorpus(t)
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// A large synthetic batch: ~40x the corpus, far more than can be
	// associated in the few milliseconds before cancellation lands.
	big := make([]Post, 0, 40*len(ds.Posts))
	for r := 0; r < 40; r++ {
		big = append(big, ds.Posts...)
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out, err := eng.Associate(ctx, big)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Associate after mid-run cancel = (%d assocs, %v), want context.Canceled", len(out), err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: Associate returned after %v", elapsed)
	}
	waitForGoroutines(t, baseline)

	// An already-cancelled context fails Match and MatchImage too.
	if _, _, err := eng.Match(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Match on cancelled ctx: %v", err)
	}
	// The engine stays fully usable after a cancelled query.
	if _, err := eng.Associate(context.Background(), ds.Posts[:100]); err != nil {
		t.Fatalf("Associate after cancellation: %v", err)
	}
}

// TestEngineOptions exercises the functional options: field-level options
// must land in the build config, and invalid values must be rejected.
func TestEngineOptions(t *testing.T) {
	ds, site := engineTestCorpus(t)
	ctx := context.Background()

	eng, err := NewEngine(ctx, ds, site,
		WithWorkers(2), WithEps(6), WithMinPts(4),
		WithAnnotationThreshold(7), WithAssociationThreshold(6))
	if err != nil {
		t.Fatalf("NewEngine with options: %v", err)
	}
	cfg := eng.Result().Config
	if cfg.Workers != 2 || cfg.Clustering.Eps != 6 || cfg.Clustering.MinPts != 4 ||
		cfg.AnnotationThreshold != 7 || cfg.AssociationThreshold != 6 {
		t.Fatalf("options not applied: %+v", cfg)
	}

	// WithConfig replaces the whole configuration; an equivalent explicit
	// config and the option-built engine must agree exactly.
	eng2, err := NewEngine(ctx, ds, site, WithConfig(cfg))
	if err != nil {
		t.Fatalf("NewEngine(WithConfig): %v", err)
	}
	if !reflect.DeepEqual(eng2.Result().Associations, eng.Result().Associations) {
		t.Fatal("WithConfig engine diverges from option-built engine")
	}

	for _, bad := range [][]Option{
		{WithEps(-1)},
		{WithWorkers(-2)},
		{WithAnnotationThreshold(1000)},
		{WithAssociationThreshold(-1)},
	} {
		if _, err := NewEngine(ctx, ds, site, bad...); err == nil {
			t.Fatalf("invalid option set %d accepted", len(bad))
		}
	}
	if _, err := NewEngine(ctx, nil, nil); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

// TestEngineProgressDerivesStats asserts the stage-event stream and the
// RunStats agree: every stage appears as start-then-done, in order, and the
// completion events carry exactly what the stats record.
func TestEngineProgressDerivesStats(t *testing.T) {
	ds, site := engineTestCorpus(t)
	var mu sync.Mutex
	var events []StageEvent
	eng, err := NewEngine(context.Background(), ds, site, WithProgress(func(ev StageEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	res := eng.Result() // adds the associate stage events

	var done []StageEvent
	for i, ev := range events {
		if ev.Done {
			done = append(done, ev)
			continue
		}
		if i+1 >= len(events) || !events[i+1].Done || events[i+1].Stage != ev.Stage {
			t.Fatalf("stage %q start not followed by its completion", ev.Stage)
		}
	}
	if len(done) != len(res.Stats.Stages) {
		t.Fatalf("%d completion events vs %d stats stages", len(done), len(res.Stats.Stages))
	}
	for i, ev := range done {
		st := res.Stats.Stages[i]
		if st.Name != ev.Stage || st.Items != ev.Items || st.Duration != ev.Duration {
			t.Fatalf("stats stage %d (%+v) does not match event %+v", i, st, ev)
		}
	}
	wantOrder := []string{"cluster", "neighbours", "annotate", "associate"}
	for i, name := range wantOrder {
		if done[i].Stage != name {
			t.Fatalf("stage order %v, want %v", done, wantOrder)
		}
	}
	// BuildStats covers the offline phase only.
	bs := eng.BuildStats()
	if len(bs.Stages) != 3 || bs.Stages[0].Name != "cluster" ||
		bs.Stages[1].Name != "neighbours" || bs.Stages[2].Name != "annotate" {
		t.Fatalf("BuildStats stages = %+v", bs.Stages)
	}
	if bs.Total <= 0 || bs.Clusters != len(eng.Clusters()) {
		t.Fatalf("BuildStats totals implausible: %+v", bs)
	}
}

// TestEngineIndexStrategiesIdentical is the tentpole acceptance criterion:
// every registered index strategy, at several worker counts, serves
// bitwise-identical Associate/Match/Result output.
func TestEngineIndexStrategiesIdentical(t *testing.T) {
	ds, site := engineTestCorpus(t)
	ctx := context.Background()

	if len(IndexStrategies()) < 3 {
		t.Fatalf("expected >= 3 registered index strategies, got %v", IndexStrategies())
	}

	type outputs struct {
		assoc   []Association
		matches []Match
		res     *Result
	}
	capture := func(eng *Engine) outputs {
		t.Helper()
		assoc, err := eng.Associate(ctx, ds.Posts)
		if err != nil {
			t.Fatalf("Associate: %v", err)
		}
		var ms []Match
		for _, c := range eng.Clusters() {
			m, ok, err := eng.Match(ctx, c.MedoidHash)
			if err != nil {
				t.Fatalf("Match: %v", err)
			}
			if ok {
				ms = append(ms, m)
			}
		}
		return outputs{assoc: assoc, matches: ms, res: eng.Result()}
	}

	base, err := NewEngine(ctx, ds, site) // default strategy, default workers
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want := capture(base)
	if len(want.assoc) == 0 || len(want.matches) == 0 {
		t.Fatal("baseline engine produced no output; corpus too small")
	}

	for _, strategy := range IndexStrategies() {
		for _, workers := range []int{1, 4} {
			eng, err := NewEngine(ctx, ds, site, WithIndex(strategy), WithWorkers(workers))
			if err != nil {
				t.Fatalf("NewEngine(%s, w=%d): %v", strategy, workers, err)
			}
			got := capture(eng)
			if !reflect.DeepEqual(got.assoc, want.assoc) {
				t.Errorf("%s/w%d: Associate diverges from default engine", strategy, workers)
			}
			if !reflect.DeepEqual(got.matches, want.matches) {
				t.Errorf("%s/w%d: Match diverges from default engine", strategy, workers)
			}
			if !reflect.DeepEqual(got.res.Associations, want.res.Associations) ||
				!reflect.DeepEqual(got.res.Clusters, want.res.Clusters) ||
				!reflect.DeepEqual(got.res.PerCommunity, want.res.PerCommunity) {
				t.Errorf("%s/w%d: Result diverges from default engine", strategy, workers)
			}
			if got.res.Config.Index != strategy {
				t.Errorf("%s/w%d: config echo carries %q", strategy, workers, got.res.Config.Index)
			}
		}
	}

	// Unknown strategies are rejected at build time.
	if _, err := NewEngine(ctx, ds, site, WithIndex("bogus")); err == nil {
		t.Fatal("bogus index strategy accepted")
	}
}

// TestEngineSaveLoad covers the snapshot workflow end to end at the public
// surface: Save → LoadEngine serves identical output with zero Steps 2-5
// work (only the load stage appears in the event stream), and Result works
// once a dataset is bound.
func TestEngineSaveLoad(t *testing.T) {
	ds, site := engineTestCorpus(t)
	ctx := context.Background()
	eng, err := NewEngine(ctx, ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	snap := buf.Bytes()

	var events []StageEvent
	loaded, err := LoadEngine(bytes.NewReader(snap), site,
		WithDataset(ds),
		WithProgress(func(ev StageEvent) { events = append(events, ev) }))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}

	// Zero Steps 2-5 work: the event stream is exactly load-start,
	// load-done, and the stats agree.
	if len(events) != 2 || events[0].Stage != "load" || events[0].Done ||
		events[1].Stage != "load" || !events[1].Done {
		t.Fatalf("load event stream = %+v, want load start+done only", events)
	}
	bs := loaded.BuildStats()
	if len(bs.Stages) != 1 || bs.Stages[0].Name != "load" {
		t.Fatalf("loaded BuildStats stages = %+v", bs.Stages)
	}
	for _, forbidden := range []string{"cluster", "neighbours", "annotate"} {
		if _, ok := bs.Stage(forbidden); ok {
			t.Fatalf("loaded engine ran build stage %q", forbidden)
		}
	}

	// Identical serving behaviour.
	wantAssoc, err := eng.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("Associate: %v", err)
	}
	gotAssoc, err := loaded.Associate(ctx, ds.Posts)
	if err != nil {
		t.Fatalf("loaded Associate: %v", err)
	}
	if !reflect.DeepEqual(gotAssoc, wantAssoc) {
		t.Fatal("loaded engine's Associate diverges from the original")
	}
	if !reflect.DeepEqual(loaded.Clusters(), eng.Clusters()) {
		t.Fatal("loaded engine's Clusters diverge from the original")
	}
	if !reflect.DeepEqual(loaded.Communities(), eng.Communities()) {
		t.Fatal("loaded engine's Communities diverge from the original")
	}

	// Result materialises identically (Stats excepted, as documented).
	want, got := eng.Result(), loaded.Result()
	if !reflect.DeepEqual(got.Associations, want.Associations) ||
		!reflect.DeepEqual(got.Clusters, want.Clusters) ||
		!reflect.DeepEqual(got.PerCommunity, want.PerCommunity) ||
		!reflect.DeepEqual(got.Config, want.Config) {
		t.Fatal("loaded engine's Result diverges from the original")
	}

	// Load-time strategy override: same results under every strategy.
	for _, strategy := range IndexStrategies() {
		alt, err := LoadEngine(bytes.NewReader(snap), site, WithIndex(strategy))
		if err != nil {
			t.Fatalf("LoadEngine(%s): %v", strategy, err)
		}
		altAssoc, err := alt.Associate(ctx, ds.Posts)
		if err != nil {
			t.Fatalf("Associate(%s): %v", strategy, err)
		}
		if !reflect.DeepEqual(altAssoc, wantAssoc) {
			t.Fatalf("strategy %s serves different associations from a snapshot", strategy)
		}
	}

	// A dataset-less load serves queries but cannot materialise Result.
	bare, err := LoadEngine(bytes.NewReader(snap), site)
	if err != nil {
		t.Fatalf("LoadEngine without dataset: %v", err)
	}
	if _, _, err := bare.Match(ctx, eng.Clusters()[0].MedoidHash); err != nil {
		t.Fatalf("dataset-less Match: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Result on a dataset-less engine should panic")
			}
		}()
		bare.Result()
	}()

	// WithDataset is a load-time option only.
	if _, err := NewEngine(ctx, ds, site, WithDataset(ds)); err == nil {
		t.Fatal("NewEngine accepted WithDataset")
	}
}

// TestEngineCommunities checks the fixed-order community listing used for
// reproducible output.
func TestEngineCommunities(t *testing.T) {
	ds, site := engineTestCorpus(t)
	eng, err := NewEngine(context.Background(), ds, site)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	want := []Community{Pol, Gab, TheDonald}
	if got := eng.Communities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Engine.Communities() = %v, want %v", got, want)
	}
	if got := eng.Result().Communities(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Result.Communities() = %v, want %v", got, want)
	}
}
