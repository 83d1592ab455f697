package analysis

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/screenshot"
)

// Report regenerates every table and figure of the paper from a pipeline
// result and renders them as text. It is the engine behind cmd/memereport
// and the benchmark harness.
//
// A Report computes each input once and keeps it while it lives: the
// per-meme Hawkes fits under the three influence sections, the /pol/ eps
// sweep under Table 8 and Figure 17. It is safe for concurrent use.
type Report struct {
	res    *pipeline.Result
	metric *distance.Metric
	infCfg InfluenceConfig
	fits   *fitCache
	sweep  func() (*polSweep, error)
}

// NewReport builds a report generator over a pipeline result.
func NewReport(res *pipeline.Result) *Report {
	r := &Report{res: res, metric: distance.New(), infCfg: DefaultInfluenceConfig(), fits: newFitCache()}
	r.sweep = sync.OnceValues(func() (*polSweep, error) { return newPolSweep(res.Dataset) })
	return r
}

// table8Eps and figure17Eps are the DBSCAN thresholds of the two sections
// that sweep eps over /pol/'s images. Figure 17's are the tail of Table 8's,
// so one sweep serves both.
var (
	table8Eps   = []int{2, 4, 6, 8, 10}
	figure17Eps = table8Eps[2:]
)

// polSweep is the /pol/ image table clustered at every eps of table8Eps.
type polSweep struct {
	images  *polImages
	results []cluster.Result
}

// sweepsRun counts newPolSweep calls, for the computed-once test.
var sweepsRun atomic.Int64

func newPolSweep(ds *dataset.Dataset) (*polSweep, error) {
	sweepsRun.Add(1)
	images, err := distinctPolImages(ds)
	if err != nil {
		return nil, err
	}
	results, err := images.sweep(table8Eps)
	if err != nil {
		return nil, err
	}
	return &polSweep{images: images, results: results}, nil
}

// Result exposes the underlying pipeline result.
func (r *Report) Result() *pipeline.Result { return r.res }

// Metric exposes the distance metric used for Figures 6 and 7.
func (r *Report) Metric() *distance.Metric { return r.metric }

// Section is one rendered report section: a table or figure of the paper.
type Section struct {
	// Title names the paper table or figure the section reproduces.
	Title string `json:"title"`
	// Body is the rendered text of the section.
	Body string `json:"body"`
}

// Sections renders every table and figure of the paper in order and returns
// them individually, so callers (cmd/memereport's JSON mode, dashboards)
// can consume the report structurally instead of as one text blob.
func (r *Report) Sections() ([]Section, error) {
	return r.SectionsCtx(context.Background())
}

// noCtx adapts a context-free section renderer to the ctx-threaded shape
// SectionsCtx iterates over. Those sections are cheap (the expensive ones —
// the Hawkes fits — take ctx directly); cancellation still lands between
// sections.
func noCtx(f func() (string, error)) func(context.Context) (string, error) {
	return func(context.Context) (string, error) { return f() }
}

// SectionsCtx is Sections with cooperative cancellation: ctx is checked
// before each section, and the Hawkes-fitting influence sections thread it
// through to every EM iteration. The served /v1/report endpoint uses this
// so an abandoned request stops burning CPU mid-fit. Output is identical to
// Sections for an uncancelled ctx.
//
// The sections are independent of each other, so they render concurrently
// on the result's worker pool (Config.Workers), started in paper order. A
// section's text lands in its own slot, so the output is the same bytes at
// every worker count; inputs two sections share (the Hawkes fits, the /pol/
// sweep, Figures 10 and 19) are computed by whichever asks first while the
// others wait for it. On failure the error is that of the first failing
// section in paper order, or ctx's own.
func (r *Report) SectionsCtx(ctx context.Context) ([]Section, error) {
	sections := r.sectionList()
	return parallel.MapErrCtx(ctx, len(sections), r.res.Config.Workers, func(i int) (Section, error) {
		s := sections[i]
		text, err := s.render(ctx)
		if err != nil {
			return Section{}, fmt.Errorf("rendering %q: %w", s.title, err)
		}
		return Section{Title: s.title, Body: text}, nil
	})
}

// reportSection is one entry of the report: a paper title and its renderer.
type reportSection struct {
	title  string
	render func(context.Context) (string, error)
}

// sectionList returns the report's sections in paper order.
func (r *Report) sectionList() []reportSection {
	return []reportSection{
		{"Table 1: dataset overview", noCtx(r.RenderTable1)},
		{"Table 2: clustering statistics", noCtx(r.RenderTable2)},
		{"Table 3: top KYM entries per fringe community (by clusters)", noCtx(r.RenderTable3)},
		{"Table 4: top meme entries per community (by posts)", noCtx(r.RenderTable4)},
		{"Table 5: top people entries per community (by posts)", noCtx(r.RenderTable5)},
		{"Table 6: top subreddits (all / racist / politics)", noCtx(r.RenderTable6)},
		{"Table 7: Hawkes events per community", noCtx(r.RenderTable7)},
		{"Table 8: clustering threshold sweep", noCtx(r.RenderTable8)},
		{"Table 9: screenshot classifier training corpus", noCtx(r.RenderTable9)},
		{"Figure 3: perceptual similarity decay", noCtx(r.RenderFigure3)},
		{"Figure 4: KYM dataset statistics", noCtx(r.RenderFigure4)},
		{"Figure 5: annotation CDFs", noCtx(r.RenderFigure5)},
		{"Figure 6: frog meme dendrogram", noCtx(r.RenderFigure6)},
		{"Figure 7: cluster graph", noCtx(r.RenderFigure7)},
		{"Figure 8: temporal meme activity", noCtx(r.RenderFigure8)},
		{"Figure 9: post score CDFs", noCtx(r.RenderFigure9)},
		{"Figure 10: attribution toy example", noCtx(r.RenderFigure10)},
		{"Figures 11-12: influence matrices (all memes)", r.renderInfluenceAllCtx},
		{"Figures 13,15: influence, racist vs non-racist", r.renderInfluenceRacistCtx},
		{"Figures 14,16: influence, political vs non-political", r.renderInfluencePoliticalCtx},
		{"Figure 17: per-cluster false positives vs threshold", noCtx(r.RenderFigure17)},
		{"Figure 19: screenshot classifier ROC", noCtx(r.RenderFigure19)},
		{"Appendix B: annotation quality", noCtx(r.RenderAppendixB)},
	}
}

// RenderAll produces the full paper report: every table and figure in order,
// as one text document.
func (r *Report) RenderAll() (string, error) {
	return r.RenderAllCtx(context.Background())
}

// RenderAllCtx is RenderAll with cooperative cancellation (see SectionsCtx).
func (r *Report) RenderAllCtx(ctx context.Context) (string, error) {
	sections, err := r.SectionsCtx(ctx)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, s := range sections {
		b.WriteString("== " + s.Title + " ==\n")
		b.WriteString(s.Body)
		b.WriteString("\n")
	}
	return b.String(), nil
}

func table(render func(w *tabwriter.Writer)) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 4, 2, ' ', 0)
	render(w)
	w.Flush()
	return b.String()
}

// RenderTable1 renders the dataset overview.
func (r *Report) RenderTable1() (string, error) {
	rows := DatasetOverview(r.res.Dataset)
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Platform\t#Posts\t#Posts w/ images\t#Images\t#Unique pHashes")
		for _, row := range rows {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n",
				row.Platform, row.Posts, row.PostsWithImages, row.Images, row.UniquePHashes)
		}
	}), nil
}

// RenderTable2 renders the clustering statistics.
func (r *Report) RenderTable2() (string, error) {
	rows := ClusteringStats(r.res)
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Community\t#Images\tNoise\t#Clusters\t#Annotated (%)")
		for _, row := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.0f%%\t%d\t%d (%.0f%%)\n",
				row.Community, row.Images, row.NoisePercent, row.Clusters,
				row.Annotated, row.AnnotatedPerc)
		}
	}), nil
}

func renderEntryCounts(byComm map[string][]EntryCount, unit string) string {
	names := make([]string, 0, len(byComm))
	for name := range byComm {
		names = append(names, name)
	}
	sort.Strings(names)
	return table(func(w *tabwriter.Writer) {
		for _, name := range names {
			fmt.Fprintf(w, "%s\tEntry\tCategory\t%s\t%%\tflags\n", name, unit)
			for _, ec := range byComm[name] {
				flags := ""
				if ec.Racist {
					flags += "(R)"
				}
				if ec.Political {
					flags += "(P)"
				}
				fmt.Fprintf(w, "\t%s\t%s\t%d\t%.1f%%\t%s\n", ec.Entry, ec.Category, ec.Count, ec.Percent, flags)
			}
		}
	})
}

// RenderTable3 renders the top entries by clusters.
func (r *Report) RenderTable3() (string, error) {
	return renderEntryCounts(TopEntriesByClusters(r.res, 20), "Clusters"), nil
}

// RenderTable4 renders the top meme entries by posts.
func (r *Report) RenderTable4() (string, error) {
	return renderEntryCounts(TopMemesByPosts(r.res, 20), "Posts"), nil
}

// RenderTable5 renders the top people entries by posts.
func (r *Report) RenderTable5() (string, error) {
	return renderEntryCounts(TopPeopleByPosts(r.res, 15), "Posts"), nil
}

// RenderTable6 renders the top subreddits.
func (r *Report) RenderTable6() (string, error) {
	groups := TopSubreddits(r.res, 10)
	render := func(title string, rows []SubredditCount) string {
		return table(func(w *tabwriter.Writer) {
			fmt.Fprintf(w, "%s\tSubreddit\tPosts\t%%\n", title)
			for _, row := range rows {
				fmt.Fprintf(w, "\t%s\t%d\t%.1f%%\n", row.Subreddit, row.Posts, row.Percent)
			}
		})
	}
	return render("All memes", groups.All) +
		render("Racism-related", groups.Racist) +
		render("Politics-related", groups.Politics), nil
}

// RenderTable7 renders the Hawkes event counts.
func (r *Report) RenderTable7() (string, error) {
	rows := EventCounts(r.res)
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Community\tEvents")
		for _, row := range rows {
			fmt.Fprintf(w, "%s\t%d\n", row.Community, row.Events)
		}
	}), nil
}

// RenderTable8 renders the clustering sweep.
func (r *Report) RenderTable8() (string, error) {
	sw, err := r.sweep()
	if err != nil {
		return "", err
	}
	rows := sw.images.sweepRows(table8Eps, sw.results)
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Distance\t#Clusters\t%Noise")
		for _, row := range rows {
			fmt.Fprintf(w, "%d\t%d\t%.1f%%\n", row.Eps, row.Clusters, row.NoisePercent)
		}
	}), nil
}

// RenderTable9 renders the screenshot training-corpus composition.
func (r *Report) RenderTable9() (string, error) {
	rows := ScreenshotDataset(screenshot.PaperCounts())
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Source\t#Images (paper corpus)")
		for _, row := range rows {
			fmt.Fprintf(w, "%s\t%d\n", row.Source, row.Images)
		}
	}), nil
}

// RenderFigure3 renders the perceptual decay curves at selected distances.
func (r *Report) RenderFigure3() (string, error) {
	series := PerceptualDecay([]float64{1, 25, 64})
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "d\ttau=1\ttau=25\ttau=64")
		for _, d := range []int{0, 1, 2, 4, 8, 16, 32, 48, 64} {
			fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.3f\n", d, series[0].Y[d], series[1].Y[d], series[2].Y[d])
		}
	}), nil
}

// RenderFigure4 renders KYM dataset statistics.
func (r *Report) RenderFigure4() (string, error) {
	st, err := ComputeKYMStats(r.res.Site)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(fmt.Sprintf("entries=%d gallery images=%d\n", st.Entries, st.Images))
	b.WriteString("categories: " + renderPercentMap(st.CategoryPercent) + "\n")
	b.WriteString("origins:    " + renderPercentMap(st.OriginPercent) + "\n")
	b.WriteString(fmt.Sprintf("images-per-entry CDF points: %d (median at %.0f)\n",
		len(st.ImagesPerEntryCDF.X), seriesMedianX(st.ImagesPerEntryCDF)))
	return b.String(), nil
}

func renderPercentMap(m map[string]float64) string {
	// Stable sort over key-ordered input: ties render alphabetically.
	keys := sortedKeys(m)
	sort.SliceStable(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.1f%%", k, m[k])
	}
	return strings.Join(parts, ", ")
}

func seriesMedianX(s Series) float64 {
	for i, y := range s.Y {
		if y >= 0.5 {
			return s.X[i]
		}
	}
	if len(s.X) > 0 {
		return s.X[len(s.X)-1]
	}
	return 0
}

// RenderFigure5 renders the annotation CDF summary.
func (r *Report) RenderFigure5() (string, error) {
	cdfs, err := ComputeAnnotationCDFs(r.res)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, comm := range sortedKeys(cdfs.EntriesPerCluster) {
		s := cdfs.EntriesPerCluster[comm]
		b.WriteString(fmt.Sprintf("%s: KYM entries per cluster, %d distinct values, P[1 entry]=%.2f\n",
			comm, len(s.X), firstY(s)))
	}
	for _, comm := range sortedKeys(cdfs.ClustersPerEntry) {
		s := cdfs.ClustersPerEntry[comm]
		b.WriteString(fmt.Sprintf("%s: clusters per KYM entry, %d distinct values, P[1 cluster]=%.2f\n",
			comm, len(s.X), firstY(s)))
	}
	return b.String(), nil
}

// sortedKeys returns the map's keys in ascending order, so report sections
// built from maps render deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func firstY(s Series) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[0]
}

// RenderFigure6 renders the frog-family dendrogram summary.
func (r *Report) RenderFigure6() (string, error) {
	dend, err := MemeFamilyDendrogram(r.res, r.metric, []string{"frog", "pepe", "apu"})
	if err != nil {
		return "", err
	}
	labels := dend.Dendrogram.Cut(0.45)
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	return fmt.Sprintf("frog-family clusters: %d; groups at cut 0.45: %d; leaves: %s ...\n",
		dend.Dendrogram.NumLeaves(), len(distinct), strings.Join(firstN(dend.Leaves, 8), ", ")), nil
}

func firstN(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// RenderFigure7 renders the cluster graph summary.
func (r *Report) RenderFigure7() (string, error) {
	g, err := BuildClusterGraph(r.res, r.metric, DefaultClusterGraphConfig())
	if err != nil {
		return "", err
	}
	purity := g.ComponentPurity()
	mean := 0.0
	for _, p := range purity {
		mean += p
	}
	if len(purity) > 0 {
		mean /= float64(len(purity))
	}
	return fmt.Sprintf("nodes=%d edges=%d components=%d mean component purity=%.2f\n",
		len(g.Nodes), len(g.Edges), len(g.ConnectedComponents()), mean), nil
}

// RenderFigure8 renders the temporal activity summary.
func (r *Report) RenderFigure8() (string, error) {
	var b strings.Builder
	for _, group := range []MemeGroup{AllMemes, RacistMemes, PoliticalMemes} {
		series := TemporalSeries(r.res, group)
		b.WriteString(group.String() + ":\n")
		names := make([]string, 0, len(series))
		for name := range series {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := series[name]
			b.WriteString(fmt.Sprintf("  %s: mean %.3f%% of daily posts contain %s memes\n",
				name, meanOf(s.Y), group))
		}
	}
	return b.String(), nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// RenderFigure9 renders the score CDF summary.
func (r *Report) RenderFigure9() (string, error) {
	cdfs, err := ComputeScoreCDFs(r.res)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, platform := range []string{"Reddit", "Gab"} {
		b.WriteString(platform + " mean scores: ")
		b.WriteString(renderFloatMap(cdfs.Means[platform]))
		b.WriteString("\n")
	}
	return b.String(), nil
}

func renderFloatMap(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.1f", k, m[k])
	}
	return strings.Join(parts, " ")
}

// figure10Body and figure19Body are the two costly sections that take
// nothing from the corpus, the engine or the request (a toy fit and a
// classifier trained on synthetic images, both from fixed seeds): the first
// Report of the process to render one computes it and the text is kept.
// experimentsRun counts the experiments, for the computed-once test.
var (
	figure10Body = sync.OnceValues(func() (string, error) {
		toy, err := RunAttributionToy(7)
		if err != nil {
			return "", err
		}
		return renderMatrix([]string{"A", "B", "C"}, toy.Raw, nil), nil
	})
	figure19Body = sync.OnceValues(func() (string, error) {
		experimentsRun.Add(1)
		res, err := screenshot.RunExperiment(screenshot.DefaultCorpusConfig(), screenshot.DefaultTrainConfig())
		if err != nil {
			return "", err
		}
		ev := res.Evaluation
		return fmt.Sprintf("AUC=%.3f accuracy=%.3f precision=%.3f recall=%.3f F1=%.3f (train=%d test=%d)\n",
			ev.AUC, ev.Accuracy, ev.Precision, ev.Recall, ev.F1, res.TrainSize, res.TestSize), nil
	})
	experimentsRun atomic.Int64
)

// RenderFigure10 renders the attribution toy example.
func (r *Report) RenderFigure10() (string, error) { return figure10Body() }

// RenderInfluenceAll renders Figures 11 and 12.
func (r *Report) RenderInfluenceAll() (string, error) {
	return r.renderInfluenceAllCtx(context.Background())
}

func (r *Report) renderInfluenceAllCtx(ctx context.Context) (string, error) {
	inf, _, err := fitGroupCtx(ctx, r.res, AllMemes, r.infCfg, r.fits, false)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Raw influence (% of destination events caused by source):\n")
	b.WriteString(renderMatrix(inf.Communities, inf.Raw, nil))
	b.WriteString("Normalized influence (per source event):\n")
	b.WriteString(renderMatrix(inf.Communities, inf.Normalized, inf.TotalExternal))
	return b.String(), nil
}

// RenderInfluenceRacist renders Figures 13 and 15.
func (r *Report) RenderInfluenceRacist() (string, error) {
	return r.renderInfluenceRacistCtx(context.Background())
}

func (r *Report) renderInfluenceRacistCtx(ctx context.Context) (string, error) {
	return r.renderComparison(ctx, RacistMemes, NonRacistMemes)
}

// RenderInfluencePolitical renders Figures 14 and 16.
func (r *Report) RenderInfluencePolitical() (string, error) {
	return r.renderInfluencePoliticalCtx(context.Background())
}

func (r *Report) renderInfluencePoliticalCtx(ctx context.Context) (string, error) {
	return r.renderComparison(ctx, PoliticalMemes, NonPoliticalMemes)
}

func (r *Report) renderComparison(ctx context.Context, group, complement MemeGroup) (string, error) {
	cmp, err := compareGroups(ctx, r.res, group, complement, r.infCfg, r.fits)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%s raw influence:\n", group))
	b.WriteString(renderMatrix(cmp.Group.Communities, cmp.Group.Raw, nil))
	b.WriteString(fmt.Sprintf("%s raw influence:\n", complement))
	b.WriteString(renderMatrix(cmp.Complement.Communities, cmp.Complement.Raw, nil))
	b.WriteString(fmt.Sprintf("%s normalized external: %s\n", group, renderVector(cmp.Group.TotalExternal)))
	b.WriteString(fmt.Sprintf("%s normalized external: %s\n", complement, renderVector(cmp.Complement.TotalExternal)))
	sig := 0
	for _, row := range cmp.Significant {
		for _, s := range row {
			if s {
				sig++
			}
		}
	}
	b.WriteString(fmt.Sprintf("significant cells (KS p<0.01): %d\n", sig))
	return b.String(), nil
}

func renderMatrix(names []string, m [][]float64, totalExt []float64) string {
	return table(func(w *tabwriter.Writer) {
		header := "src\\dst"
		for _, n := range names {
			header += "\t" + n
		}
		if totalExt != nil {
			header += "\tTotal Ext"
		}
		fmt.Fprintln(w, header)
		for i, row := range m {
			line := names[i]
			for _, v := range row {
				line += fmt.Sprintf("\t%.2f%%", v*100)
			}
			if totalExt != nil {
				line += fmt.Sprintf("\t%.2f%%", totalExt[i]*100)
			}
			fmt.Fprintln(w, line)
		}
	})
}

func renderVector(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f%%", x*100)
	}
	return strings.Join(parts, " ")
}

// RenderFigure17 renders the false-positive sweep.
func (r *Report) RenderFigure17() (string, error) {
	sw, err := r.sweep()
	if err != nil {
		return "", err
	}
	rows, err := sw.images.falsePositiveRows(figure17Eps, sw.results[len(table8Eps)-len(figure17Eps):])
	if err != nil {
		return "", err
	}
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Distance\tMean FP fraction")
		for _, row := range rows {
			fmt.Fprintf(w, "%d\t%.3f\n", row.Eps, row.MeanFraction)
		}
	}), nil
}

// RenderFigure19 renders the screenshot classifier evaluation, on a corpus
// that is a 1/40 scale model of the paper's.
func (r *Report) RenderFigure19() (string, error) { return figure19Body() }

// RenderAppendixB renders the annotation-quality evaluation.
func (r *Report) RenderAppendixB() (string, error) {
	res, err := AnnotationQuality()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("Fleiss kappa=%.2f majority accuracy=%.0f%% bad KYM entries=%.2f%% (subjects=%d entries=%d)\n",
		res.Kappa, res.MajorityAccuracy*100, res.BadEntryFraction*100,
		res.SubjectsAssessed, res.EntriesAssessed), nil
}
