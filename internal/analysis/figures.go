package analysis

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/distance"
	"github.com/memes-pipeline/memes/internal/graphviz"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/stats"
)

// Series is a generic (x, y) series used for CDFs and time series.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// PerceptualDecay computes Figure 3: r_perceptual as a function of the
// Hamming distance for each smoother value.
func PerceptualDecay(taus []float64) []Series {
	var out []Series
	for _, tau := range taus {
		s := Series{Label: fmt.Sprintf("tau=%g", tau)}
		for d := 0; d <= phash.MaxDistance; d++ {
			s.X = append(s.X, float64(d))
			s.Y = append(s.Y, distance.PerceptualSimilarity(d, tau))
		}
		out = append(out, s)
	}
	return out
}

// KYMStats bundles the three panels of Figure 4.
type KYMStats struct {
	// CategoryPercent is the share of entries per category (Figure 4a).
	CategoryPercent map[string]float64
	// ImagesPerEntryCDF is the CDF of gallery sizes (Figure 4b).
	ImagesPerEntryCDF Series
	// OriginPercent is the share of entries per origin platform (Figure 4c).
	OriginPercent map[string]float64
	// Entries and Images are the site totals.
	Entries int
	Images  int
}

// ComputeKYMStats computes Figure 4 from an annotation site.
func ComputeKYMStats(site *annotate.Site) (KYMStats, error) {
	if site == nil || site.NumEntries() == 0 {
		return KYMStats{}, errors.New("analysis: empty annotation site")
	}
	out := KYMStats{
		CategoryPercent: map[string]float64{},
		OriginPercent:   map[string]float64{},
		Entries:         site.NumEntries(),
		Images:          site.NumGalleryImages(),
	}
	total := float64(site.NumEntries())
	for cat, n := range site.CategoryCounts() {
		out.CategoryPercent[string(cat)] = float64(n) / total * 100
	}
	for origin, n := range site.OriginCounts() {
		out.OriginPercent[origin] = float64(n) / total * 100
	}
	sizes := site.GallerySizes()
	vals := make([]float64, len(sizes))
	for i, s := range sizes {
		vals[i] = float64(s)
	}
	cdf, err := stats.NewCDF(vals)
	if err != nil {
		return KYMStats{}, err
	}
	xs, ys := cdf.Points()
	out.ImagesPerEntryCDF = Series{Label: "images per KYM entry", X: xs, Y: ys}
	return out, nil
}

// AnnotationCDFs bundles the two panels of Figure 5.
type AnnotationCDFs struct {
	// EntriesPerCluster maps community name to the CDF of the number of KYM
	// entries matching each annotated cluster (Figure 5a).
	EntriesPerCluster map[string]Series
	// ClustersPerEntry maps community name to the CDF of the number of
	// clusters annotated by each KYM entry (Figure 5b).
	ClustersPerEntry map[string]Series
}

// ComputeAnnotationCDFs computes Figure 5 from the pipeline result.
func ComputeAnnotationCDFs(res *pipeline.Result) (AnnotationCDFs, error) {
	out := AnnotationCDFs{
		EntriesPerCluster: map[string]Series{},
		ClustersPerEntry:  map[string]Series{},
	}
	for _, comm := range []dataset.Community{dataset.Pol, dataset.TheDonald, dataset.Gab} {
		var perCluster []float64
		perEntry := map[string]int{}
		for _, c := range res.Clusters {
			if c.Community != comm || !c.Annotated() {
				continue
			}
			perCluster = append(perCluster, float64(len(c.Annotation.Matches)))
			for _, m := range c.Annotation.Matches {
				perEntry[m.Entry.Name]++
			}
		}
		if len(perCluster) == 0 {
			continue
		}
		cdf1, err := stats.NewCDF(perCluster)
		if err != nil {
			return out, err
		}
		x1, y1 := cdf1.Points()
		out.EntriesPerCluster[comm.String()] = Series{Label: comm.String(), X: x1, Y: y1}

		var clustersPer []float64
		for _, n := range perEntry {
			clustersPer = append(clustersPer, float64(n))
		}
		cdf2, err := stats.NewCDF(clustersPer)
		if err != nil {
			return out, err
		}
		x2, y2 := cdf2.Points()
		out.ClustersPerEntry[comm.String()] = Series{Label: comm.String(), X: x2, Y: y2}
	}
	if len(out.EntriesPerCluster) == 0 {
		return out, errors.New("analysis: no annotated clusters for Figure 5")
	}
	return out, nil
}

// DendrogramResult is the Figure 6 output: the merge tree over the clusters
// of a meme family plus the labels of its leaves.
type DendrogramResult struct {
	Dendrogram *cluster.Dendrogram
	// Leaves holds one label per leaf in the same item order used to build
	// the dendrogram, formatted like the paper's "4@smug-frog" axis labels.
	Leaves []string
	// ClusterIDs maps dendrogram items back to pipeline cluster IDs.
	ClusterIDs []int
}

// MemeFamilyDendrogram computes Figure 6: the hierarchical relationship, by
// the custom distance metric, between all annotated clusters whose
// representative entry name contains any of the given substrings (the paper
// uses the "frog" memes).
func MemeFamilyDendrogram(res *pipeline.Result, metric *distance.Metric, nameSubstrings []string) (*DendrogramResult, error) {
	if metric == nil {
		return nil, errors.New("analysis: nil metric")
	}
	if len(nameSubstrings) == 0 {
		return nil, errors.New("analysis: no name substrings supplied")
	}
	var ids []int
	for _, c := range res.Clusters {
		if !c.Annotated() {
			continue
		}
		name := c.EntryName()
		for _, sub := range nameSubstrings {
			if sub != "" && contains(name, sub) {
				ids = append(ids, c.ID)
				break
			}
		}
	}
	if len(ids) == 0 {
		return nil, errors.New("analysis: no clusters match the requested meme family")
	}
	feats := make([]distance.ClusterFeatures, len(ids))
	leaves := make([]string, len(ids))
	for i, id := range ids {
		c := res.Clusters[id]
		feats[i] = c.Features()
		leaves[i] = fmt.Sprintf("%s@%s", communityTag(c.Community), c.EntryName())
	}
	dend, err := cluster.Agglomerative(len(ids), func(i, j int) float64 {
		return metric.Distance(feats[i], feats[j])
	}, cluster.AverageLinkage)
	if err != nil {
		return nil, err
	}
	return &DendrogramResult{Dendrogram: dend, Leaves: leaves, ClusterIDs: ids}, nil
}

func communityTag(c dataset.Community) string {
	switch c {
	case dataset.Pol:
		return "4"
	case dataset.TheDonald:
		return "D"
	case dataset.Gab:
		return "G"
	default:
		return "?"
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// ClusterGraphConfig controls the Figure 7 graph construction.
type ClusterGraphConfig struct {
	// Kappa is the distance threshold for drawing an edge.
	Kappa float64
	// MinDegree filters out nodes with fewer connections.
	MinDegree int
	// Layout enables force-directed layout of the filtered graph, for
	// callers that export node coordinates.
	Layout bool
}

// DefaultClusterGraphConfig mirrors the paper: kappa=0.45, degree >= 10.
// The degree filter is lowered to 2 here because the synthetic corpus has
// hundreds rather than tens of thousands of clusters. It computes no
// layout; a caller that draws the graph sets Layout.
func DefaultClusterGraphConfig() ClusterGraphConfig {
	return ClusterGraphConfig{Kappa: graphviz.DefaultKappa, MinDegree: 2}
}

// BuildClusterGraph computes Figure 7: the graph over annotated cluster
// medoids with edges below the distance threshold, degree-filtered and, if
// cfg.Layout is set, laid out.
func BuildClusterGraph(res *pipeline.Result, metric *distance.Metric, cfg ClusterGraphConfig) (*graphviz.Graph, error) {
	if metric == nil {
		return nil, errors.New("analysis: nil metric")
	}
	ids := res.AnnotatedClusters()
	if len(ids) == 0 {
		return nil, errors.New("analysis: no annotated clusters for Figure 7")
	}
	feats := make([]distance.ClusterFeatures, len(ids))
	labels := make([]string, len(ids))
	groups := make([]string, len(ids))
	sizes := make([]int, len(ids))
	for i, id := range ids {
		c := res.Clusters[id]
		feats[i] = c.Features()
		labels[i] = c.EntryName()
		groups[i] = c.EntryName()
		sizes[i] = c.Images
	}
	dist := metric.Matrix(feats)
	g, err := graphviz.Build(dist, labels, groups, sizes, cfg.Kappa)
	if err != nil {
		return nil, err
	}
	if cfg.MinDegree > 0 {
		g = g.FilterByDegree(cfg.MinDegree)
	}
	if cfg.Layout && len(g.Nodes) > 0 {
		if err := g.Layout(graphviz.DefaultLayoutConfig()); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MemeGroup selects which memes a temporal or influence analysis covers.
type MemeGroup int

// Meme groups used throughout Section 4.2 and Section 5.
const (
	AllMemes MemeGroup = iota
	RacistMemes
	NonRacistMemes
	PoliticalMemes
	NonPoliticalMemes
)

func (g MemeGroup) String() string {
	switch g {
	case AllMemes:
		return "all"
	case RacistMemes:
		return "racist"
	case NonRacistMemes:
		return "non-racist"
	case PoliticalMemes:
		return "politics"
	case NonPoliticalMemes:
		return "non-politics"
	default:
		return fmt.Sprintf("MemeGroup(%d)", int(g))
	}
}

// ParseMemeGroup parses the wire form of a meme group — the exact strings
// String renders ("all", "racist", "non-racist", "politics",
// "non-politics"), so a group round-trips through JSON and flag values.
func ParseMemeGroup(s string) (MemeGroup, error) {
	for _, g := range []MemeGroup{AllMemes, RacistMemes, NonRacistMemes, PoliticalMemes, NonPoliticalMemes} {
		if s == g.String() {
			return g, nil
		}
	}
	return 0, fmt.Errorf("analysis: unknown meme group %q (want all, racist, non-racist, politics, or non-politics)", s)
}

// inGroup reports whether a cluster belongs to the meme group.
func inGroup(c *pipeline.ClusterInfo, g MemeGroup) bool {
	switch g {
	case AllMemes:
		return true
	case RacistMemes:
		return c.Racist
	case NonRacistMemes:
		return !c.Racist
	case PoliticalMemes:
		return c.Political
	case NonPoliticalMemes:
		return !c.Political
	default:
		return false
	}
}

// TemporalSeries computes Figure 8: for each community, the percentage of
// its posts per day that contain memes of the given group.
func TemporalSeries(res *pipeline.Result, group MemeGroup) map[string]Series {
	days := int(res.Dataset.End.Sub(res.Dataset.Start).Hours()/24) + 1
	if days < 1 {
		days = 1
	}
	memePosts := map[dataset.Community][]float64{}
	totalPosts := map[dataset.Community][]float64{}
	for _, comm := range dataset.Communities() {
		memePosts[comm] = make([]float64, days)
		totalPosts[comm] = make([]float64, days)
	}
	dayOf := func(t time.Time) int {
		d := int(t.Sub(res.Dataset.Start).Hours() / 24)
		if d < 0 {
			d = 0
		}
		if d >= days {
			d = days - 1
		}
		return d
	}
	for i := range res.Dataset.Posts {
		p := &res.Dataset.Posts[i]
		totalPosts[p.Community][dayOf(p.Timestamp)]++
	}
	for _, a := range res.Associations {
		c := &res.Clusters[a.ClusterID]
		if !inGroup(c, group) {
			continue
		}
		p := &res.Dataset.Posts[a.PostIndex]
		memePosts[p.Community][dayOf(p.Timestamp)]++
	}
	// Aggregate counts per platform (The Donald folds into Reddit, like the
	// paper) and convert to daily percentages.
	memeByPlatform := map[string][]float64{}
	totalByPlatform := map[string][]float64{}
	for comm := range memePosts {
		name := comm.Platform()
		if memeByPlatform[name] == nil {
			memeByPlatform[name] = make([]float64, days)
			totalByPlatform[name] = make([]float64, days)
		}
		for d := 0; d < days; d++ {
			memeByPlatform[name][d] += memePosts[comm][d]
			totalByPlatform[name][d] += totalPosts[comm][d]
		}
	}
	out := map[string]Series{}
	for name := range memeByPlatform {
		s := Series{Label: name, X: make([]float64, days), Y: make([]float64, days)}
		for d := 0; d < days; d++ {
			s.X[d] = float64(d)
			if totalByPlatform[name][d] > 0 {
				s.Y[d] = memeByPlatform[name][d] / totalByPlatform[name][d] * 100
			}
		}
		out[name] = s
	}
	return out
}

// ScoreCDFs computes Figure 9: the CDF of post scores on Reddit (including
// The Donald) and Gab for political/non-political and racist/non-racist
// memes, plus all memes.
type ScoreCDFs struct {
	// Reddit and Gab map group name ("politics", "racism", ...) to CDF series.
	Reddit map[string]Series
	Gab    map[string]Series
	// Means holds the mean score per platform and group for the textual
	// comparison in Section 4.2.3.
	Means map[string]map[string]float64
}

// ComputeScoreCDFs computes Figure 9.
func ComputeScoreCDFs(res *pipeline.Result) (ScoreCDFs, error) {
	groups := []MemeGroup{PoliticalMemes, NonPoliticalMemes, RacistMemes, NonRacistMemes, AllMemes}
	out := ScoreCDFs{
		Reddit: map[string]Series{},
		Gab:    map[string]Series{},
		Means:  map[string]map[string]float64{"Reddit": {}, "Gab": {}},
	}
	scores := map[string]map[MemeGroup][]float64{"Reddit": {}, "Gab": {}}
	for _, a := range res.Associations {
		p := &res.Dataset.Posts[a.PostIndex]
		var platform string
		switch p.Community {
		case dataset.Reddit, dataset.TheDonald:
			platform = "Reddit"
		case dataset.Gab:
			platform = "Gab"
		default:
			continue
		}
		c := &res.Clusters[a.ClusterID]
		for _, g := range groups {
			if inGroup(c, g) {
				scores[platform][g] = append(scores[platform][g], float64(p.Score))
			}
		}
	}
	for platform, byGroup := range scores {
		for g, vals := range byGroup {
			if len(vals) == 0 {
				continue
			}
			cdf, err := stats.NewCDF(vals)
			if err != nil {
				return out, err
			}
			xs, ys := cdf.Points()
			s := Series{Label: g.String(), X: xs, Y: ys}
			if platform == "Reddit" {
				out.Reddit[g.String()] = s
			} else {
				out.Gab[g.String()] = s
			}
			out.Means[platform][g.String()] = stats.Mean(vals)
		}
	}
	if len(out.Reddit) == 0 && len(out.Gab) == 0 {
		return out, errors.New("analysis: no scored posts for Figure 9")
	}
	return out, nil
}

// FalsePositiveRow is one eps value of Figure 17 with the CDF of per-cluster
// false-positive fractions measured against the planted ground truth.
type FalsePositiveRow struct {
	Eps int
	CDF Series
	// MeanFraction is the mean per-cluster false-positive fraction.
	MeanFraction float64
}

// ClusterFalsePositives computes Figure 17: for each eps, cluster the /pol/
// images and measure, per cluster, the fraction of images whose planted
// ground-truth meme differs from the cluster's dominant meme.
func ClusterFalsePositives(ds *dataset.Dataset, epsValues []int) ([]FalsePositiveRow, error) {
	t, err := distinctPolImages(ds)
	if err != nil {
		return nil, err
	}
	results, err := t.sweep(epsValues)
	if err != nil {
		return nil, err
	}
	return t.falsePositiveRows(epsValues, results)
}

// falsePositiveRows renders one Figure 17 row per clustering of the table,
// in ascending eps order.
func (t *polImages) falsePositiveRows(epsValues []int, results []cluster.Result) ([]FalsePositiveRow, error) {
	var out []FalsePositiveRow
	for i, res := range results {
		eps := epsValues[i]
		// Every image post votes its ground-truth meme into its cluster.
		votes := make([]map[int]int, res.NumClusters)
		for c := range votes {
			votes[c] = map[int]int{}
		}
		for p, at := range t.postAt {
			if lbl := res.Labels[at]; lbl != cluster.Noise {
				votes[lbl][t.truth[p]]++
			}
		}
		var fractions []float64
		for _, byMeme := range votes {
			best, total := 0, 0
			for _, v := range byMeme {
				total += v
				if v > best {
					best = v
				}
			}
			if total > 0 {
				fractions = append(fractions, 1-float64(best)/float64(total))
			}
		}
		if len(fractions) == 0 {
			fractions = []float64{0}
		}
		cdf, err := stats.NewCDF(fractions)
		if err != nil {
			return nil, err
		}
		xs, ys := cdf.Points()
		out = append(out, FalsePositiveRow{
			Eps:          eps,
			CDF:          Series{Label: fmt.Sprintf("distance = %d", eps), X: xs, Y: ys},
			MeanFraction: stats.Mean(fractions),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Eps < out[j].Eps })
	return out, nil
}
