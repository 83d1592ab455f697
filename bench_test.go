package memes

// This file holds one benchmark per table and figure of the paper's
// evaluation (PAPER.md maps the paper onto the code; README gives the
// commands that regenerate the report), plus ablations of the design
// choices. Each regenerates the corresponding rows or series from a shared
// pipeline run over the synthetic corpus and reports the headline quantity
// as a benchmark metric, so `go test -bench=.` reproduces the evaluation in
// one command. The performance rows (build, clustering, serve path,
// snapshots, hashing, ingest) are cmd/memebench's table:
// `go test -bench . ./cmd/memebench` runs them.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/memes-pipeline/memes/internal/analysis"
	"github.com/memes-pipeline/memes/internal/benchcorpus"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
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

func getBench(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		ds, err := dataset.Generate(benchcorpus.Config())
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
	var rows []analysis.Table2Row
	for i := 0; i < b.N; i++ {
		rows = analysis.ClusteringStats(st.res)
	}
	for _, row := range rows {
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
		rep := analysis.NewReport(st.res)
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

// --- Ablations --------------------------------------------------------------

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
