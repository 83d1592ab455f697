package memes

// This file is the benchmark harness of the reproduction: one benchmark per
// table and figure of the paper's evaluation (see DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured values). Each
// benchmark regenerates the corresponding rows or series from a shared
// pipeline run over the synthetic corpus and reports the headline quantity
// as a benchmark metric, so `go test -bench=.` reproduces the entire
// evaluation in one command.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/benchcorpus"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/screenshot"
)

// benchState is the shared corpus + pipeline run used by all benchmarks. It
// is built once; individual benchmarks re-run only the analysis under test.
type benchState struct {
	ds  *dataset.Dataset
	res *pipeline.Result
	met *distance.Metric
}

var (
	benchOnce sync.Once
	bench     benchState
	benchErr  error
)

// benchConfig is the shared benchmark corpus; cmd/memebench generates the
// same one (see internal/benchcorpus), so trajectory points and `go test
// -bench` numbers are comparable by construction.
func benchConfig() dataset.Config {
	return benchcorpus.Config()
}

func getBench(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := dataset.Generate(benchConfig())
		if err != nil {
			benchErr = fmt.Errorf("generating corpus: %w", err)
			return
		}
		site, err := ds.Site(true)
		if err != nil {
			benchErr = fmt.Errorf("building site: %w", err)
			return
		}
		res, err := pipeline.Run(ds, site, pipeline.DefaultConfig())
		if err != nil {
			benchErr = fmt.Errorf("running pipeline: %w", err)
			return
		}
		bench = benchState{ds: ds, res: res, met: distance.New()}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return &bench
}

// --- Tables -----------------------------------------------------------------

func BenchmarkTable1_DatasetOverview(b *testing.B) {
	st := getBench(b)
	var rows []analysis.Table1Row
	for i := 0; i < b.N; i++ {
		rows = analysis.DatasetOverview(st.ds)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.UniquePHashes), "uniq_phash_"+sanitize(r.Platform))
	}
}

func BenchmarkTable2_ClusteringStats(b *testing.B) {
	st := getBench(b)
	cfg := pipeline.DefaultConfig()
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	var res *pipeline.Result
	for i := 0; i < b.N; i++ {
		res, err = pipeline.Run(st.ds, site, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range analysis.ClusteringStats(res) {
		b.ReportMetric(float64(row.Clusters), "clusters_"+sanitize(row.Community))
		b.ReportMetric(row.NoisePercent, "noise_pct_"+sanitize(row.Community))
	}
}

func BenchmarkTable3_TopKYMEntries(b *testing.B) {
	st := getBench(b)
	var top map[string][]analysis.EntryCount
	for i := 0; i < b.N; i++ {
		top = analysis.TopEntriesByClusters(st.res, 20)
	}
	if rows := top["/pol/"]; len(rows) > 0 {
		b.ReportMetric(rows[0].Percent, "top_entry_pct_pol")
	}
}

func BenchmarkTable4_TopMemesByPosts(b *testing.B) {
	st := getBench(b)
	var top map[string][]analysis.EntryCount
	for i := 0; i < b.N; i++ {
		top = analysis.TopMemesByPosts(st.res, 20)
	}
	if rows := top["/pol/"]; len(rows) > 0 {
		b.ReportMetric(rows[0].Percent, "top_meme_pct_pol")
	}
}

func BenchmarkTable5_TopPeople(b *testing.B) {
	st := getBench(b)
	var top map[string][]analysis.EntryCount
	for i := 0; i < b.N; i++ {
		top = analysis.TopPeopleByPosts(st.res, 15)
	}
	total := 0
	for _, rows := range top {
		total += len(rows)
	}
	b.ReportMetric(float64(total), "people_rows")
}

func BenchmarkTable6_TopSubreddits(b *testing.B) {
	st := getBench(b)
	var groups analysis.SubredditGroups
	for i := 0; i < b.N; i++ {
		groups = analysis.TopSubreddits(st.res, 10)
	}
	if len(groups.All) > 0 {
		b.ReportMetric(groups.All[0].Percent, "top_subreddit_pct")
	}
}

func BenchmarkTable7_EventCounts(b *testing.B) {
	st := getBench(b)
	var rows []analysis.EventCount
	for i := 0; i < b.N; i++ {
		rows = analysis.EventCounts(st.res)
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Events), "events_"+sanitize(r.Community))
	}
}

// BenchmarkTable8_ClusteringSweep times Table 8 on a fresh report, which
// runs the /pol/ eps sweep Figure 17 shares.
func BenchmarkTable8_ClusteringSweep(b *testing.B) {
	benchRender(b, (*analysis.Report).RenderTable8)
}

func BenchmarkTable9_ScreenshotDataset(b *testing.B) {
	var rows []analysis.Table9Row
	for i := 0; i < b.N; i++ {
		rows = analysis.ScreenshotDataset(screenshot.PaperCounts())
	}
	total := 0
	for _, r := range rows {
		total += r.Images
	}
	b.ReportMetric(float64(total), "corpus_images")
}

// --- Figures ----------------------------------------------------------------

func BenchmarkFigure3_PerceptualDecay(b *testing.B) {
	var series []analysis.Series
	for i := 0; i < b.N; i++ {
		series = analysis.PerceptualDecay([]float64{1, 25, 64})
	}
	// Report r(8) for tau=25, the operating point discussed in §2.3.
	b.ReportMetric(series[1].Y[8], "r_perceptual_d8_tau25")
}

func BenchmarkFigure4_KYMStats(b *testing.B) {
	st := getBench(b)
	var stats analysis.KYMStats
	var err error
	for i := 0; i < b.N; i++ {
		stats, err = analysis.ComputeKYMStats(st.res.Site)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.CategoryPercent["memes"], "memes_category_pct")
}

func BenchmarkFigure5_AnnotationCDFs(b *testing.B) {
	st := getBench(b)
	var cdfs analysis.AnnotationCDFs
	var err error
	for i := 0; i < b.N; i++ {
		cdfs, err = analysis.ComputeAnnotationCDFs(st.res)
		if err != nil {
			b.Fatal(err)
		}
	}
	if s, ok := cdfs.EntriesPerCluster["/pol/"]; ok && len(s.Y) > 0 {
		b.ReportMetric(s.Y[0], "frac_single_entry_pol")
	}
}

func BenchmarkFigure6_FrogDendrogram(b *testing.B) {
	st := getBench(b)
	var dend *analysis.DendrogramResult
	var err error
	for i := 0; i < b.N; i++ {
		dend, err = analysis.MemeFamilyDendrogram(st.res, st.met, []string{"frog", "pepe", "apu"})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dend.Dendrogram.NumLeaves()), "frog_clusters")
}

func BenchmarkFigure7_ClusterGraph(b *testing.B) {
	st := getBench(b)
	var purity float64
	for i := 0; i < b.N; i++ {
		g, err := analysis.BuildClusterGraph(st.res, st.met, analysis.DefaultClusterGraphConfig())
		if err != nil {
			b.Fatal(err)
		}
		ps := g.ComponentPurity()
		purity = 0
		for _, p := range ps {
			purity += p
		}
		if len(ps) > 0 {
			purity /= float64(len(ps))
		}
	}
	b.ReportMetric(purity, "mean_component_purity")
}

func BenchmarkFigure8_Temporal(b *testing.B) {
	st := getBench(b)
	var series map[string]analysis.Series
	for i := 0; i < b.N; i++ {
		series = analysis.TemporalSeries(st.res, analysis.AllMemes)
		_ = analysis.TemporalSeries(st.res, analysis.RacistMemes)
		_ = analysis.TemporalSeries(st.res, analysis.PoliticalMemes)
	}
	if s, ok := series["/pol/"]; ok {
		b.ReportMetric(mean(s.Y), "pol_daily_meme_pct")
	}
}

func BenchmarkFigure9_ScoreCDFs(b *testing.B) {
	st := getBench(b)
	var cdfs analysis.ScoreCDFs
	var err error
	for i := 0; i < b.N; i++ {
		cdfs, err = analysis.ComputeScoreCDFs(st.res)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cdfs.Means["Reddit"]["politics"], "reddit_politics_mean_score")
	b.ReportMetric(cdfs.Means["Reddit"]["non-politics"], "reddit_nonpolitics_mean_score")
}

func BenchmarkFigure10_AttributionToy(b *testing.B) {
	var toy *analysis.AttributionToy
	var err error
	for i := 0; i < b.N; i++ {
		toy, err = analysis.RunAttributionToy(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(toy.Raw[1][0]*100, "pct_A_rooted_in_B")
}

func BenchmarkFigure11_RawInfluence(b *testing.B) {
	st := getBench(b)
	var inf *analysis.InfluenceResult
	var err error
	for i := 0; i < b.N; i++ {
		inf, err = analysis.EstimateInfluence(st.res, analysis.AllMemes, analysis.DefaultInfluenceConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(inf.Raw[int(dataset.Pol)][int(dataset.Reddit)]*100, "pct_reddit_events_from_pol")
	b.ReportMetric(inf.Raw[int(dataset.Pol)][int(dataset.Twitter)]*100, "pct_twitter_events_from_pol")
}

func BenchmarkFigure12_NormalizedInfluence(b *testing.B) {
	st := getBench(b)
	var inf *analysis.InfluenceResult
	var err error
	for i := 0; i < b.N; i++ {
		inf, err = analysis.EstimateInfluence(st.res, analysis.AllMemes, analysis.DefaultInfluenceConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(inf.TotalExternal[int(dataset.TheDonald)]*100, "ext_pct_thedonald")
	b.ReportMetric(inf.TotalExternal[int(dataset.Pol)]*100, "ext_pct_pol")
}

// BenchmarkFigures13_15_RacistInfluence and
// BenchmarkFigures14_16_PoliticalInfluence time each comparison section on a
// fresh report: both groups' fits and the per-cell KS tests.
func BenchmarkFigures13_15_RacistInfluence(b *testing.B) {
	benchRender(b, (*analysis.Report).RenderInfluenceRacist)
}

func BenchmarkFigures14_16_PoliticalInfluence(b *testing.B) {
	benchRender(b, (*analysis.Report).RenderInfluencePolitical)
}

// BenchmarkFigure17_ClusterFalsePositives times Figure 17 on a fresh report,
// which runs the /pol/ eps sweep Table 8 shares.
func BenchmarkFigure17_ClusterFalsePositives(b *testing.B) {
	benchRender(b, (*analysis.Report).RenderFigure17)
}

// benchRender times one report section, each iteration on a fresh Report so
// the section computes what it needs rather than reading a memo.
func benchRender(b *testing.B, render func(*analysis.Report) (string, error)) {
	st := getBench(b)
	for i := 0; i < b.N; i++ {
		rep, err := analysis.NewReport(st.res)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := render(rep); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure19_ScreenshotROC(b *testing.B) {
	var exp *screenshot.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		exp, err = screenshot.RunExperiment(screenshot.DefaultCorpusConfig(), screenshot.DefaultTrainConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(exp.Evaluation.AUC, "auc")
	b.ReportMetric(exp.Evaluation.Accuracy, "accuracy")
	b.ReportMetric(exp.Evaluation.F1, "f1")
}

func BenchmarkAppendixB_AnnotationQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pr, err := analysis.AnnotationQuality()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(pr.Kappa, "fleiss_kappa")
			b.ReportMetric(pr.MajorityAccuracy, "majority_accuracy")
		}
	}
}

// --- Performance and ablations ----------------------------------------------

// BenchmarkPipelineRun measures the full Steps 2-6 engine at one worker
// versus the machine's full worker pool; the ratio of the two is the
// parallel speedup tracked in the perf trajectory. Both variants produce
// bitwise-identical results (see pipeline's determinism test).
func BenchmarkPipelineRun(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.Workers = workers
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				res, err = pipeline.Run(st.ds, site, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Stats.ImagesPerSec(), "images_per_sec")
			b.ReportMetric(float64(len(res.Clusters)), "clusters")
		})
	}
}

// BenchmarkEngineAssociate measures the serve-path throughput in isolation:
// the Steps 2-5 index is built once outside the timed loop, then repeated
// post batches stream through Engine.Associate. images_per_sec here is the
// paper's §7 headline metric (~73 images/sec on two Titan Xp GPUs for
// Step 6), tracked separately from the build cost BenchmarkPipelineRun pays
// on every iteration. One sub-benchmark per registered index strategy makes
// this the serve-path shoot-out the CI perf trajectory records: every
// strategy returns bitwise-identical associations (see the engine and
// internal/index equivalence tests), so the deltas are pure cost.
func BenchmarkEngineAssociate(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	imagePosts := 0
	for i := range st.ds.Posts {
		if st.ds.Posts[i].HasImage {
			imagePosts++
		}
	}
	for _, strategy := range IndexStrategies() {
		b.Run(string(strategy), func(b *testing.B) {
			eng, err := NewEngine(ctx, st.ds, site, WithIndex(strategy))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Associate(ctx, st.ds.Posts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(imagePosts)*float64(b.N)/secs, "images_per_sec")
			}
		})
	}
}

// BenchmarkEngineMatch measures single-hash lookup latency per strategy —
// the primitive a serving front-end pays per image — using the annotated
// medoids themselves as queries.
func BenchmarkEngineMatch(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, strategy := range IndexStrategies() {
		b.Run(string(strategy), func(b *testing.B) {
			eng, err := NewEngine(ctx, st.ds, site, WithIndex(strategy))
			if err != nil {
				b.Fatal(err)
			}
			var queries []Hash
			for _, c := range eng.Clusters() {
				if c.Annotated() {
					queries = append(queries, c.MedoidHash)
				}
			}
			if len(queries) == 0 {
				b.Skip("no annotated clusters")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Match(ctx, queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSnapshot measures the persistence path: Save cost, Load
// cost, and snapshot size — the price of skipping Steps 2-5 on restart.
func BenchmarkEngineSnapshot(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eng, err := NewEngine(ctx, st.ds, site)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			w.Grow(len(snap))
			if err := eng.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(snap)), "snapshot_bytes")
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LoadEngine(bytes.NewReader(snap), site); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// steadyStrategies are the index strategies whose sealed query path is
// allocation-free in steady state — all three built-ins: the tree
// strategies answer RadiusScratch from pooled scratch, the multi-index
// reduces inside NearestWithin. CI pins their steady benchmarks to 0
// allocs/op, the same contract PhashExtraction carries.
func steadyStrategies() []IndexStrategy {
	return []IndexStrategy{IndexBKTree, IndexMultiIndex, IndexSharded}
}

// BenchmarkEngineAssociateSteady measures the serve path the way a resident
// server actually runs it: AssociateAppend into a recycled caller-owned
// buffer, after one warm-up pass has grown the buffer and filled the query
// scratch pool. The steady state must not allocate — allocs/op is the gated
// quantity, throughput is informational.
func BenchmarkEngineAssociateSteady(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	imagePosts := 0
	for i := range st.ds.Posts {
		if st.ds.Posts[i].HasImage {
			imagePosts++
		}
	}
	for _, strategy := range steadyStrategies() {
		b.Run(string(strategy), func(b *testing.B) {
			eng, err := NewEngine(ctx, st.ds, site, WithIndex(strategy))
			if err != nil {
				b.Fatal(err)
			}
			// Warm: grow the output buffer to capacity and seed the pool.
			out, err := eng.AssociateAppend(ctx, st.ds.Posts, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err = eng.AssociateAppend(ctx, st.ds.Posts, out[:0])
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(imagePosts)*float64(b.N)/secs, "images_per_sec")
			}
		})
	}
}

// BenchmarkEngineMatchSteady measures single-hash lookup in steady state:
// the sealed flat index answers from pooled scratch, so the per-lookup
// allocation count must be 0.
func BenchmarkEngineMatchSteady(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, strategy := range steadyStrategies() {
		b.Run(string(strategy), func(b *testing.B) {
			eng, err := NewEngine(ctx, st.ds, site, WithIndex(strategy))
			if err != nil {
				b.Fatal(err)
			}
			var queries []Hash
			for _, c := range eng.Clusters() {
				if c.Annotated() {
					queries = append(queries, c.MedoidHash)
				}
			}
			if len(queries) == 0 {
				b.Skip("no annotated clusters")
			}
			// Warm every query once: the pooled scratch grows to the
			// largest result set before counting, so one-time growth
			// never shows up as allocs/op.
			for _, q := range queries {
				if _, _, err := eng.Match(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Match(ctx, queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSnapshotLoad measures load-to-first-query per snapshot
// version from an on-disk file — the restart cost a serving box pays. v1
// streams varints and rebuilds the medoid index; v2 reads the whole file
// and decodes its fixed-width tables.
func BenchmarkEngineSnapshotLoad(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	eng, err := NewEngine(ctx, st.ds, site)
	if err != nil {
		b.Fatal(err)
	}
	var query Hash
	found := false
	for _, c := range eng.Clusters() {
		if c.Annotated() {
			query, found = c.MedoidHash, true
			break
		}
	}
	if !found {
		b.Skip("no annotated clusters")
	}
	dir := b.TempDir()
	for _, v := range []struct {
		name    string
		version uint32
	}{{"v1", SnapshotV1}, {"v2", SnapshotV2}} {
		path := filepath.Join(dir, v.name+".snap")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.SaveVersion(f, v.version); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			// Drain garbage so the loop measures the load, not a GC over
			// the corpus heap.
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := LoadEngineFile(path, site)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := loaded.Match(ctx, query); err != nil {
					b.Fatal(err)
				}
				if err := loaded.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerf_AssociationThroughput measures the Step 6 association rate
// (images per second), the quantity the paper reports as ~73 images/sec on
// two Titan Xp GPUs (§7 Performance).
func BenchmarkPerf_AssociationThroughput(b *testing.B) {
	st := getBench(b)
	site, err := st.ds.Site(true)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	imagePosts := 0
	for _, p := range st.ds.Posts {
		if p.HasImage {
			imagePosts++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(st.ds, site, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(imagePosts), "images_per_op")
}

// BenchmarkAblation_IndexVsBrute compares the BK-tree/multi-index
// neighbourhood search against a brute-force scan, the design choice that
// replaces the paper's GPU pairwise engine.
func BenchmarkAblation_IndexVsBrute(b *testing.B) {
	st := getBench(b)
	hashes, _, _ := st.ds.FringeImageHashes()
	if len(hashes) == 0 {
		b.Skip("no fringe hashes")
	}
	query := hashes[0]
	b.Run("multiindex", func(b *testing.B) {
		mi := phash.NewMultiIndex()
		for i, h := range hashes {
			mi.Insert(h, int64(i))
		}
		mi.Seal()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mi.Radius(query, 8)
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, h := range hashes {
				if phash.Distance(query, h) <= 8 {
					n++
				}
			}
			_ = n
		}
	})
}

// BenchmarkAblation_GraphThreshold sweeps the Figure 7 edge threshold kappa.
func BenchmarkAblation_GraphThreshold(b *testing.B) {
	st := getBench(b)
	for _, kappa := range []float64{0.25, 0.45, 0.65} {
		b.Run(fmt.Sprintf("kappa_%0.2f", kappa), func(b *testing.B) {
			cfg := analysis.DefaultClusterGraphConfig()
			cfg.Kappa = kappa
			var edges int
			for i := 0; i < b.N; i++ {
				g, err := analysis.BuildClusterGraph(st.res, st.met, cfg)
				if err != nil {
					b.Fatal(err)
				}
				edges = len(g.Edges)
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkAblation_HawkesKernel sweeps the exponential kernel decay rate
// used by the influence estimation.
func BenchmarkAblation_HawkesKernel(b *testing.B) {
	st := getBench(b)
	for _, omega := range []float64{0.5, 1.0, 2.0} {
		b.Run(fmt.Sprintf("omega_%0.1f", omega), func(b *testing.B) {
			cfg := analysis.DefaultInfluenceConfig()
			cfg.Omega = omega
			var inf *analysis.InfluenceResult
			var err error
			for i := 0; i < b.N; i++ {
				inf, err = analysis.EstimateInfluence(st.res, analysis.AllMemes, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(inf.TotalExternal[int(dataset.TheDonald)]*100, "ext_pct_thedonald")
		})
	}
}

// BenchmarkDBSCAN measures the Steps 2-3 clustering in isolation over the
// corpus's distinct fringe hashes: the two-phase run (parallel
// eps-neighbourhood scan + serial expansion) at one worker versus the full
// pool. neighbour_points_per_sec is the phase-one throughput — the CPU
// analogue of the paper's GPU pairwise engine — and the labels are
// bitwise-identical at every worker count (see cluster's reference
// property test and fuzz target).
func BenchmarkDBSCAN(b *testing.B) {
	st := getBench(b)
	hashes, counts, _ := st.ds.FringeImageHashes()
	if len(hashes) == 0 {
		b.Skip("no fringe hashes")
	}
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			cfg := cluster.DefaultDBSCANConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			var res cluster.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = cluster.DBSCAN(hashes, counts, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Neighbourhoods.PointsPerSec(), "neighbour_points_per_sec")
			b.ReportMetric(float64(res.NumClusters), "clusters")
		})
	}
}

// BenchmarkPhashExtraction measures Step 1 hashing throughput. The steady
// state is allocation-free (pooled hasher scratch + pruned DCT); CI gates
// on allocs/op staying 0.
func BenchmarkPhashExtraction(b *testing.B) {
	tmpl := imaging.Template(1)
	if _, err := HashImage(tmpl); err != nil { // warm the hasher pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashImage(tmpl); err != nil {
			b.Fatal(err)
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
