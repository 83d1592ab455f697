package analysis

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/screenshot"
)

// sharedRun caches one pipeline run over the small synthetic corpus for all
// analysis tests.
var sharedRun *pipeline.Result

func getRun(t *testing.T) *pipeline.Result {
	t.Helper()
	if sharedRun != nil {
		return sharedRun
	}
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		t.Fatalf("Site: %v", err)
	}
	res, err := pipeline.Run(ds, site, pipeline.DefaultConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sharedRun = res
	return res
}

func TestDatasetOverview(t *testing.T) {
	res := getRun(t)
	rows := DatasetOverview(res.Dataset)
	if len(rows) != 4 {
		t.Fatalf("expected 4 platform rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.Posts < row.PostsWithImages {
			t.Errorf("%s: posts < posts with images", row.Platform)
		}
		if row.UniquePHashes > row.Images {
			t.Errorf("%s: unique hashes exceed images", row.Platform)
		}
	}
}

func TestClusteringStats(t *testing.T) {
	res := getRun(t)
	rows := ClusteringStats(res)
	if len(rows) != 3 {
		t.Fatalf("expected 3 fringe rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.NoisePercent < 0 || row.NoisePercent > 100 {
			t.Errorf("%s noise %v out of range", row.Community, row.NoisePercent)
		}
		if row.Annotated > row.Clusters {
			t.Errorf("%s has more annotated clusters than clusters", row.Community)
		}
	}
	// /pol/ should have the most clusters (it posts the most memes).
	if rows[0].Community != "/pol/" || rows[0].Clusters == 0 {
		t.Errorf("unexpected first row %+v", rows[0])
	}
}

func TestTopEntriesByClusters(t *testing.T) {
	res := getRun(t)
	top := TopEntriesByClusters(res, 20)
	if len(top["/pol/"]) == 0 {
		t.Fatal("no top entries for /pol/")
	}
	for comm, entries := range top {
		prev := 1 << 30
		for _, e := range entries {
			if e.Count > prev {
				t.Fatalf("%s entries not sorted by count", comm)
			}
			prev = e.Count
			if e.Percent < 0 || e.Percent > 100 {
				t.Fatalf("%s percent %v out of range", comm, e.Percent)
			}
		}
	}
}

func TestTopMemesAndPeopleByPosts(t *testing.T) {
	res := getRun(t)
	memes := TopMemesByPosts(res, 20)
	if len(memes) == 0 {
		t.Fatal("no meme rankings")
	}
	foundMemeCategory := false
	for _, entries := range memes {
		for _, e := range entries {
			if e.Category != "memes" {
				t.Fatalf("non-meme entry %q in Table 4", e.Entry)
			}
			foundMemeCategory = true
		}
	}
	if !foundMemeCategory {
		t.Fatal("no meme-category entries found")
	}
	people := TopPeopleByPosts(res, 15)
	for _, entries := range people {
		for _, e := range entries {
			if e.Category != "people" {
				t.Fatalf("non-people entry %q in Table 5", e.Entry)
			}
		}
	}
}

func TestTopSubreddits(t *testing.T) {
	res := getRun(t)
	groups := TopSubreddits(res, 10)
	if len(groups.All) == 0 {
		t.Fatal("no subreddit rankings")
	}
	// The Donald should be the top subreddit overall (it is its own
	// community and posts heavily).
	if groups.All[0].Subreddit != "The_Donald" {
		t.Errorf("top subreddit = %q, want The_Donald", groups.All[0].Subreddit)
	}
	if len(groups.Politics) == 0 {
		t.Error("no politics subreddit rankings")
	}
}

func TestEventCounts(t *testing.T) {
	res := getRun(t)
	rows := EventCounts(res)
	if len(rows) != dataset.NumCommunities {
		t.Fatalf("expected %d rows, got %d", dataset.NumCommunities, len(rows))
	}
	// Sorted descending; /pol/ should lead (Table 7).
	if rows[0].Community != "/pol/" {
		t.Errorf("most events on %q, want /pol/", rows[0].Community)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Events > rows[i-1].Events {
			t.Fatal("event counts not sorted")
		}
	}
}

func TestClusterSweep(t *testing.T) {
	res := getRun(t)
	sw, err := newPolSweep(res.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	rows := sw.images.sweepRows(table8Eps, sw.results)
	if len(rows) != len(table8Eps) {
		t.Fatalf("expected %d sweep rows, got %d", len(table8Eps), len(rows))
	}
	// Smaller eps yields at least as much noise (Table 8's trend).
	for i := 1; i < len(rows); i++ {
		if rows[i-1].NoisePercent < rows[i].NoisePercent {
			t.Errorf("noise at eps=%d (%v) should be >= noise at eps=%d (%v)",
				rows[i-1].Eps, rows[i-1].NoisePercent, rows[i].Eps, rows[i].NoisePercent)
		}
	}
	if _, err := sw.images.sweep(nil); err == nil {
		t.Fatal("empty sweep should fail")
	}
}

func TestScreenshotDatasetTable(t *testing.T) {
	rows := ScreenshotDataset(screenshot.PaperCounts())
	if len(rows) != 6 {
		t.Fatalf("expected 6 sources, got %d", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Images
	}
	if total != 39451 {
		t.Fatalf("paper corpus total %d, want 39451", total)
	}
}

func TestPerceptualDecayFigure(t *testing.T) {
	series := PerceptualDecay([]float64{1, 25, 64})
	if len(series) != 3 {
		t.Fatalf("expected 3 series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.X) != 65 || len(s.Y) != 65 {
			t.Fatalf("series %s has %d points", s.Label, len(s.X))
		}
		if s.Y[0] != 1 {
			t.Errorf("series %s should start at 1", s.Label)
		}
		if s.Y[64] > 1e-9 {
			t.Errorf("series %s should end at 0", s.Label)
		}
	}
}

func TestComputeKYMStats(t *testing.T) {
	res := getRun(t)
	st, err := ComputeKYMStats(res.Site)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range st.CategoryPercent {
		sum += p
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("category percentages sum to %v", sum)
	}
	if st.Entries == 0 || st.Images == 0 {
		t.Error("empty KYM stats")
	}
	if len(st.ImagesPerEntryCDF.X) == 0 {
		t.Error("empty gallery-size CDF")
	}
	if _, err := ComputeKYMStats(nil); err == nil {
		t.Error("nil site should fail")
	}
}

func TestComputeAnnotationCDFs(t *testing.T) {
	res := getRun(t)
	cdfs, err := ComputeAnnotationCDFs(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs.EntriesPerCluster) == 0 || len(cdfs.ClustersPerEntry) == 0 {
		t.Fatal("empty annotation CDFs")
	}
	for comm, s := range cdfs.EntriesPerCluster {
		if len(s.X) == 0 {
			t.Errorf("%s: empty CDF", comm)
		}
		if s.Y[len(s.Y)-1] != 1 {
			t.Errorf("%s: CDF does not reach 1", comm)
		}
	}
}

func TestMemeFamilyDendrogram(t *testing.T) {
	res := getRun(t)
	metric := distance.New()
	dend, err := MemeFamilyDendrogram(res, metric, []string{"frog", "pepe", "apu"})
	if err != nil {
		t.Fatal(err)
	}
	if dend.Dendrogram.NumLeaves() != len(dend.Leaves) {
		t.Fatal("leaf labels misaligned")
	}
	for _, l := range dend.Leaves {
		if !strings.Contains(l, "@") {
			t.Fatalf("leaf label %q missing community tag", l)
		}
	}
	if _, err := MemeFamilyDendrogram(res, metric, []string{"no-such-meme-family"}); err == nil {
		t.Fatal("unknown family should fail")
	}
	if _, err := MemeFamilyDendrogram(res, nil, []string{"frog"}); err == nil {
		t.Fatal("nil metric should fail")
	}
	if _, err := MemeFamilyDendrogram(res, metric, nil); err == nil {
		t.Fatal("empty substrings should fail")
	}
}

func TestBuildClusterGraph(t *testing.T) {
	res := getRun(t)
	metric := distance.New()
	g, err := BuildClusterGraph(res, metric, DefaultClusterGraphConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) == 0 {
		t.Fatal("empty cluster graph")
	}
	// The Figure 7 claim: connected components are dominated by one meme.
	purity := g.ComponentPurity()
	if len(purity) > 0 {
		mean := 0.0
		for _, p := range purity {
			mean += p
		}
		mean /= float64(len(purity))
		if mean < 0.6 {
			t.Errorf("mean component purity %v too low for the Figure 7 claim", mean)
		}
	}
	if _, err := BuildClusterGraph(res, nil, DefaultClusterGraphConfig()); err == nil {
		t.Fatal("nil metric should fail")
	}
}

func TestTemporalSeries(t *testing.T) {
	res := getRun(t)
	all := TemporalSeries(res, AllMemes)
	if len(all) == 0 {
		t.Fatal("no temporal series")
	}
	for name, s := range all {
		if len(s.X) != len(s.Y) {
			t.Fatalf("%s: misaligned series", name)
		}
		for _, y := range s.Y {
			if y < 0 || y > 100 {
				t.Fatalf("%s: percentage %v out of range", name, y)
			}
		}
	}
	racist := TemporalSeries(res, RacistMemes)
	// Racist meme share should not exceed the all-memes share on any platform.
	for name := range racist {
		if meanOf(racist[name].Y) > meanOf(all[name].Y)+1e-9 {
			t.Errorf("%s: racist share exceeds all-memes share", name)
		}
	}
}

func TestComputeScoreCDFs(t *testing.T) {
	res := getRun(t)
	cdfs, err := ComputeScoreCDFs(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs.Reddit) == 0 {
		t.Fatal("no Reddit score CDFs")
	}
	// Planted structure: political memes score higher than non-political on
	// Reddit; racist memes score lower than non-racist.
	if cdfs.Means["Reddit"]["politics"] <= cdfs.Means["Reddit"]["non-politics"] {
		t.Errorf("Reddit political mean %v should exceed non-political %v",
			cdfs.Means["Reddit"]["politics"], cdfs.Means["Reddit"]["non-politics"])
	}
	if r, nr := cdfs.Means["Reddit"]["racist"], cdfs.Means["Reddit"]["non-racist"]; r != 0 && r >= nr {
		t.Errorf("Reddit racist mean %v should be below non-racist %v", r, nr)
	}
}

func TestClusterFalsePositives(t *testing.T) {
	res := getRun(t)
	sw, err := newPolSweep(res.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sw.images.falsePositiveRows(figure17Eps, sw.results[len(table8Eps)-len(figure17Eps):])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, row := range rows {
		if row.MeanFraction < 0 || row.MeanFraction > 1 {
			t.Errorf("eps=%d: mean fraction %v out of range", row.Eps, row.MeanFraction)
		}
	}
	// Larger thresholds merge more distinct memes: the mean false-positive
	// fraction at eps=10 should be at least that at eps=6 (Figure 17's trend).
	if rows[2].MeanFraction+1e-9 < rows[0].MeanFraction {
		t.Errorf("FP fraction should not decrease with eps: %v", rows)
	}
}

func TestEstimateInfluenceAllMemes(t *testing.T) {
	res := getRun(t)
	inf, err := EstimateInfluence(res, AllMemes, DefaultInfluenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	k := dataset.NumCommunities
	if len(inf.Raw) != k || len(inf.Normalized) != k {
		t.Fatal("influence matrices have wrong shape")
	}
	// Raw influence columns sum to 1 for destinations with events.
	for dst := 0; dst < k; dst++ {
		if inf.Events[dst] == 0 {
			continue
		}
		col := 0.0
		for src := 0; src < k; src++ {
			col += inf.Raw[src][dst]
		}
		if math.Abs(col-1) > 1e-6 {
			t.Errorf("raw influence column %d sums to %v", dst, col)
		}
	}
	// Planted structure: /pol/ has the largest raw external influence on at
	// least one other community (it posts the most memes), and The Donald's
	// normalized external influence exceeds /pol/'s (it is the most
	// efficient).
	pol, td := int(dataset.Pol), int(dataset.TheDonald)
	if inf.TotalExternal[td] <= inf.TotalExternal[pol] {
		t.Errorf("The Donald normalized external influence (%v) should exceed /pol/'s (%v)",
			inf.TotalExternal[td], inf.TotalExternal[pol])
	}
	// /pol/ posts the most meme events.
	for c, n := range inf.Events {
		if c != pol && n > inf.Events[pol] {
			t.Errorf("community %d has more events than /pol/", c)
		}
	}
	if _, err := EstimateInfluence(res, AllMemes, InfluenceConfig{}); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestCompareGroups(t *testing.T) {
	res := getRun(t)
	cfg := DefaultInfluenceConfig()
	cfg.MaxIter = 30
	cmp, err := compareGroups(context.Background(), res, PoliticalMemes, NonPoliticalMemes, cfg, newFitCache())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Group.Group != PoliticalMemes || cmp.Complement.Group != NonPoliticalMemes {
		t.Fatal("group labels wrong")
	}
	if len(cmp.Significant) != dataset.NumCommunities {
		t.Fatal("significance matrix wrong shape")
	}
}

func TestRunAttributionToy(t *testing.T) {
	toy, err := RunAttributionToy(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(toy.Raw) != 3 {
		t.Fatal("toy matrix wrong shape")
	}
	// B (process 1) should dominate the external root causes of A and C.
	if toy.Raw[1][0] < toy.Raw[2][0] || toy.Raw[1][2] < toy.Raw[0][2] {
		t.Errorf("B should dominate external influence: %+v", toy.Raw)
	}
}

func TestAnnotationQuality(t *testing.T) {
	res, err := AnnotationQuality()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kappa < 0.4 || res.MajorityAccuracy < 0.8 {
		t.Errorf("annotation quality far from the paper's values: %+v", res)
	}
}

func TestMemeGroupString(t *testing.T) {
	for _, g := range []MemeGroup{AllMemes, RacistMemes, NonRacistMemes, PoliticalMemes, NonPoliticalMemes} {
		if g.String() == "" {
			t.Fatal("empty group name")
		}
	}
	if MemeGroup(99).String() == "" {
		t.Fatal("unknown group should still stringify")
	}
}

func TestReportRenderAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow; skipped in -short mode")
	}
	res := getRun(t)
	rep := NewReport(res)
	text, err := rep.RenderAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "Table 9", "Figure 3", "Figure 19", "Appendix B",
		"/pol/", "Raw influence",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if rep.Result() != res || rep.Metric() == nil {
		t.Error("report accessors broken")
	}
}
