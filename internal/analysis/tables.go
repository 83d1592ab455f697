// Package analysis implements Step 7 of the pipeline: every table and
// figure of the paper's evaluation is regenerated from a pipeline.Result.
// Each function returns a plain data structure that the report renderer (and
// the benchmark harness in the repository root) turns into the same rows and
// series the paper prints.
package analysis

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/screenshot"
)

// Table1Row is one row of the dataset overview (Table 1).
type Table1Row struct {
	Platform        string
	Posts           int
	PostsWithImages int
	Images          int
	UniquePHashes   int
}

// DatasetOverview computes Table 1 from the dataset.
func DatasetOverview(ds *dataset.Dataset) []Table1Row {
	stats := ds.PlatformStats()
	out := make([]Table1Row, len(stats))
	for i, s := range stats {
		out[i] = Table1Row{
			Platform:        s.Platform,
			Posts:           s.Posts,
			PostsWithImages: s.PostsWithImages,
			Images:          s.Images,
			UniquePHashes:   s.UniquePHashes,
		}
	}
	return out
}

// Table2Row is one row of the clustering statistics (Table 2).
type Table2Row struct {
	Community     string
	Images        int
	NoisePercent  float64
	Clusters      int
	Annotated     int
	AnnotatedPerc float64
}

// ClusteringStats computes Table 2 from the pipeline result.
func ClusteringStats(res *pipeline.Result) []Table2Row {
	order := []dataset.Community{dataset.Pol, dataset.TheDonald, dataset.Gab}
	var out []Table2Row
	for _, comm := range order {
		s, ok := res.PerCommunity[comm]
		if !ok {
			continue
		}
		row := Table2Row{
			Community:    comm.String(),
			Images:       s.Images,
			NoisePercent: s.NoiseFraction() * 100,
			Clusters:     s.Clusters,
			Annotated:    s.Annotated,
		}
		if s.Clusters > 0 {
			row.AnnotatedPerc = float64(s.Annotated) / float64(s.Clusters) * 100
		}
		out = append(out, row)
	}
	return out
}

// EntryCount pairs a KYM entry with a count and its share of the total.
type EntryCount struct {
	Entry     string
	Category  string
	Count     int
	Percent   float64
	Racist    bool
	Political bool
}

// TopEntriesByClusters computes Table 3: the top-N KYM entries per fringe
// community ranked by the number of clusters whose representative annotation
// they are.
func TopEntriesByClusters(res *pipeline.Result, topN int) map[string][]EntryCount {
	out := make(map[string][]EntryCount)
	for _, comm := range []dataset.Community{dataset.Pol, dataset.TheDonald, dataset.Gab} {
		counts := map[string]int{}
		entryOf := map[string]*annotate.Entry{}
		totalAnnotated := 0
		for _, c := range res.Clusters {
			if c.Community != comm || !c.Annotated() {
				continue
			}
			totalAnnotated++
			name := c.EntryName()
			counts[name]++
			entryOf[name] = c.Annotation.Representative
		}
		out[comm.String()] = rankEntries(counts, entryOf, totalAnnotated, topN)
	}
	return out
}

// TopMemesByPosts computes Table 4: the top-N meme-category entries per
// community ranked by the number of posts associated with their clusters.
func TopMemesByPosts(res *pipeline.Result, topN int) map[string][]EntryCount {
	return topEntriesByPosts(res, topN, func(e *annotate.Entry) bool {
		return e.Category == annotate.CategoryMeme
	})
}

// TopPeopleByPosts computes Table 5: the top-N people-category entries per
// community ranked by associated posts.
func TopPeopleByPosts(res *pipeline.Result, topN int) map[string][]EntryCount {
	return topEntriesByPosts(res, topN, func(e *annotate.Entry) bool {
		return e.Category == annotate.CategoryPeople
	})
}

// topEntriesByPosts aggregates Step 6 associations per community and entry,
// keeping entries accepted by the filter.
func topEntriesByPosts(res *pipeline.Result, topN int, filter func(*annotate.Entry) bool) map[string][]EntryCount {
	perComm := map[dataset.Community]map[string]int{}
	entryOf := map[string]*annotate.Entry{}
	totals := map[dataset.Community]int{}
	for _, a := range res.Associations {
		c := res.Clusters[a.ClusterID]
		rep := c.Annotation.Representative
		if rep == nil {
			continue
		}
		post := &res.Dataset.Posts[a.PostIndex]
		comm := post.Community
		totals[comm]++
		if !filter(rep) {
			continue
		}
		if perComm[comm] == nil {
			perComm[comm] = map[string]int{}
		}
		perComm[comm][rep.Name]++
		entryOf[rep.Name] = rep
	}
	// The paper reports /pol/, Reddit (including The Donald), Gab, Twitter.
	merged := map[string]map[string]int{}
	mergedTotals := map[string]int{}
	for comm, counts := range perComm {
		name := comm.Platform()
		if merged[name] == nil {
			merged[name] = map[string]int{}
		}
		for e, n := range counts {
			merged[name][e] += n
		}
	}
	for comm, n := range totals {
		mergedTotals[comm.Platform()] += n
	}
	out := make(map[string][]EntryCount, len(merged))
	for name, counts := range merged {
		out[name] = rankEntries(counts, entryOf, mergedTotals[name], topN)
	}
	return out
}

// rankEntries converts a name->count map into a sorted, percentage-annotated
// top-N list.
func rankEntries(counts map[string]int, entryOf map[string]*annotate.Entry, total, topN int) []EntryCount {
	out := make([]EntryCount, 0, len(counts))
	for name, n := range counts {
		ec := EntryCount{Entry: name, Count: n}
		if total > 0 {
			ec.Percent = float64(n) / float64(total) * 100
		}
		if e := entryOf[name]; e != nil {
			ec.Category = string(e.Category)
			ec.Racist = e.IsRacist()
			ec.Political = e.IsPolitical()
		}
		out = append(out, ec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Entry < out[j].Entry
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// SubredditCount is one row of Table 6.
type SubredditCount struct {
	Subreddit string
	Posts     int
	Percent   float64
}

// SubredditGroups holds the three Table 6 columns.
type SubredditGroups struct {
	All      []SubredditCount
	Racist   []SubredditCount
	Politics []SubredditCount
}

// TopSubreddits computes Table 6: the subreddits with the most meme posts,
// overall and restricted to the racist and politics tag groups.
func TopSubreddits(res *pipeline.Result, topN int) SubredditGroups {
	all := map[string]int{}
	racist := map[string]int{}
	politics := map[string]int{}
	var allTotal, racistTotal, politicsTotal int
	for _, a := range res.Associations {
		post := &res.Dataset.Posts[a.PostIndex]
		if post.Community != dataset.Reddit && post.Community != dataset.TheDonald {
			continue
		}
		sub := post.Subreddit
		if sub == "" {
			continue
		}
		c := res.Clusters[a.ClusterID]
		all[sub]++
		allTotal++
		if c.Racist {
			racist[sub]++
			racistTotal++
		}
		if c.Political {
			politics[sub]++
			politicsTotal++
		}
	}
	rank := func(counts map[string]int, total int) []SubredditCount {
		out := make([]SubredditCount, 0, len(counts))
		for s, n := range counts {
			sc := SubredditCount{Subreddit: s, Posts: n}
			if total > 0 {
				sc.Percent = float64(n) / float64(total) * 100
			}
			out = append(out, sc)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Posts != out[j].Posts {
				return out[i].Posts > out[j].Posts
			}
			return out[i].Subreddit < out[j].Subreddit
		})
		if topN > 0 && len(out) > topN {
			out = out[:topN]
		}
		return out
	}
	return SubredditGroups{
		All:      rank(all, allTotal),
		Racist:   rank(racist, racistTotal),
		Politics: rank(politics, politicsTotal),
	}
}

// EventCount is one row of Table 7: meme posting events per community.
type EventCount struct {
	Community string
	Events    int
}

// EventCounts computes Table 7: the number of posts associated with
// annotated clusters per community (the events fed to the Hawkes models).
func EventCounts(res *pipeline.Result) []EventCount {
	counts := map[dataset.Community]int{}
	for _, a := range res.Associations {
		counts[res.Dataset.Posts[a.PostIndex].Community]++
	}
	var out []EventCount
	for _, comm := range dataset.Communities() {
		out = append(out, EventCount{Community: comm.String(), Events: counts[comm]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Events > out[j].Events })
	return out
}

// SweepRow is one row of Table 8: clustering behaviour at one DBSCAN eps.
type SweepRow struct {
	Eps          int
	Clusters     int
	NoisePercent float64
}

// polImages is the table both eps sweeps (Table 8, Figure 17) cluster: the
// distinct /pol/ image hashes in order of first appearance with how often
// each occurs, and, for every /pol/ image post, which of them it carries and
// its planted ground-truth meme.
type polImages struct {
	hashes []phash.Hash
	counts []int
	postAt []int32 // per image post: index into hashes
	truth  []int   // per image post: TruthMeme
}

func distinctPolImages(ds *dataset.Dataset) (*polImages, error) {
	t := &polImages{}
	index := map[phash.Hash]int32{}
	for i := range ds.Posts {
		p := &ds.Posts[i]
		if !p.HasImage || p.Community != dataset.Pol {
			continue
		}
		h := p.PHash()
		at, ok := index[h]
		if !ok {
			at = int32(len(t.hashes))
			index[h] = at
			t.hashes = append(t.hashes, h)
			t.counts = append(t.counts, 0)
		}
		t.counts[at]++
		t.postAt = append(t.postAt, at)
		t.truth = append(t.truth, p.TruthMeme)
	}
	if len(t.hashes) == 0 {
		return nil, errors.New("analysis: no /pol/ images to sweep")
	}
	return t, nil
}

// sweepMinPts is the DBSCAN density threshold both sweeps hold fixed while
// eps varies (the paper's MinPts, Appendix A).
const sweepMinPts = 5

// sweep clusters the table at every eps (at least one) off one neighbourhood
// scan.
func (t *polImages) sweep(epsValues []int) ([]cluster.Result, error) {
	results, err := cluster.SweepCtx(context.Background(), t.hashes, t.counts, epsValues, sweepMinPts, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: eps sweep: %w", err)
	}
	return results, nil
}

// ClusterSweep computes Table 8: the number of clusters and the noise
// percentage of /pol/'s images for a range of DBSCAN thresholds.
func ClusterSweep(ds *dataset.Dataset, epsValues []int) ([]SweepRow, error) {
	t, err := distinctPolImages(ds)
	if err != nil {
		return nil, err
	}
	results, err := t.sweep(epsValues)
	if err != nil {
		return nil, err
	}
	return t.sweepRows(epsValues, results), nil
}

// sweepRows renders one Table 8 row per clustering of the table.
func (t *polImages) sweepRows(epsValues []int, results []cluster.Result) []SweepRow {
	out := make([]SweepRow, len(results))
	for at, res := range results {
		noiseImages := 0
		totalImages := 0
		for i, lbl := range res.Labels {
			totalImages += t.counts[i]
			if lbl == cluster.Noise {
				noiseImages += t.counts[i]
			}
		}
		out[at] = SweepRow{
			Eps:          epsValues[at],
			Clusters:     res.NumClusters,
			NoisePercent: float64(noiseImages) / float64(totalImages) * 100,
		}
	}
	return out
}

// Table9Row is one row of the screenshot-classifier training set composition
// (Table 9).
type Table9Row struct {
	Source string
	Images int
}

// ScreenshotDataset reports Table 9 for a given corpus configuration; pass
// screenshot.PaperCounts() to reproduce the paper's numbers.
func ScreenshotDataset(counts map[screenshot.Source]int) []Table9Row {
	order := []screenshot.Source{
		screenshot.SourceTwitter, screenshot.SourceFourChan, screenshot.SourceReddit,
		screenshot.SourceFacebook, screenshot.SourceInstagram, screenshot.SourceOther,
	}
	var out []Table9Row
	for _, s := range order {
		out = append(out, Table9Row{Source: string(s), Images: counts[s]})
	}
	return out
}
