package analysis

import (
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

// TimeSeriesRow is one day of corpus activity for one community: how many
// posts the community made, how many of them were matched to an annotated
// meme cluster (Step 6), and the resulting meme share. cmd/memereport's
// `-format timeseries` emits one row per day × community.
type TimeSeriesRow struct {
	// Day is the UTC calendar day of the bucket, formatted 2006-01-02.
	Day string
	// Community is the display name of the community.
	Community string
	// Posts counts every post of the community on the day.
	Posts int
	// MemePosts counts the day's posts associated to a cluster of the group.
	MemePosts int
	// Percent is the meme share of the day's posts; 0 when Posts is 0.
	Percent float64
}

// TimeSeries computes per-day per-community post and meme-post counts for
// one meme group — the tabular form of Figure 8's temporal activity,
// bucketed by community instead of platform. Rows come out ordered by day,
// then by the fixed dataset.Communities() order, so the rendering is
// deterministic. Days derive from the dataset's observation window;
// out-of-window timestamps clamp to the window edges, like TemporalSeries.
func TimeSeries(res *pipeline.Result, group MemeGroup) []TimeSeriesRow {
	days := int(res.Dataset.End.Sub(res.Dataset.Start).Hours()/24) + 1
	if days < 1 {
		days = 1
	}
	comms := dataset.Communities()
	posts := make([][]int, len(comms))
	memes := make([][]int, len(comms))
	for i := range comms {
		posts[i] = make([]int, days)
		memes[i] = make([]int, days)
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
	commIndex := map[dataset.Community]int{}
	for i, c := range comms {
		commIndex[c] = i
	}
	for i := range res.Dataset.Posts {
		p := &res.Dataset.Posts[i]
		posts[commIndex[p.Community]][dayOf(p.Timestamp)]++
	}
	for _, a := range res.Associations {
		c := &res.Clusters[a.ClusterID]
		if !inGroup(c, group) {
			continue
		}
		p := &res.Dataset.Posts[a.PostIndex]
		memes[commIndex[p.Community]][dayOf(p.Timestamp)]++
	}

	out := make([]TimeSeriesRow, 0, days*len(comms))
	for d := 0; d < days; d++ {
		day := res.Dataset.Start.UTC().Add(time.Duration(d) * 24 * time.Hour).Format("2006-01-02")
		for i, c := range comms {
			out = append(out, TimeSeriesRow{
				Day:       day,
				Community: c.String(),
				Posts:     posts[i][d],
				MemePosts: memes[i][d],
				Percent:   pct(memes[i][d], posts[i][d]),
			})
		}
	}
	return out
}

func pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
