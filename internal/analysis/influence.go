package analysis

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/memes-pipeline/memes/internal/annotate"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/hawkes"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/stats"
)

// InfluenceConfig controls the Section 5 influence estimation.
type InfluenceConfig struct {
	// Omega is the Hawkes kernel decay rate (events per day time scale).
	Omega float64
	// MaxIter caps the EM iterations per fit.
	MaxIter int
	// MinEventsPerFit is the minimum number of events a meme needs before a
	// Hawkes model is fitted to it; smaller memes attribute every event to
	// its own community's background (which is what a fit on so little data
	// would conclude anyway).
	MinEventsPerFit int
}

// DefaultInfluenceConfig mirrors the analysis defaults.
func DefaultInfluenceConfig() InfluenceConfig {
	return InfluenceConfig{Omega: 1.0, MaxIter: 60, MinEventsPerFit: 20}
}

// InfluenceResult bundles the Figure 11/12 matrices for one meme group.
type InfluenceResult struct {
	Group MemeGroup
	// Communities gives the display names in matrix order.
	Communities []string
	// Events is Table 7 restricted to the group: meme posting events per
	// community.
	Events []int
	// Raw is Figure 11: Raw[src][dst] is the fraction of destination events
	// attributed to the source community (columns sum to 1).
	Raw [][]float64
	// Normalized is Figure 12: influence divided by the source community's
	// event count.
	Normalized [][]float64
	// TotalExternal is the "Total Ext" column: normalized influence summed
	// over all destinations other than the source itself.
	TotalExternal []float64
	// Total is the "Total" column (external plus self).
	Total []float64
}

// memeKey groups associations that belong to the same meme: the paper fits
// one Hawkes model per meme cluster, and the closest equivalent here is the
// representative KYM entry of the matched cluster (clusters of the same meme
// found on different fringe communities share it).
func memeKey(res *pipeline.Result, a pipeline.Association) string {
	return res.Clusters[a.ClusterID].EntryName()
}

// eventsByMeme converts the Step 6 associations of one meme group into
// per-meme Hawkes event series (time in days since the window start).
func eventsByMeme(res *pipeline.Result, group MemeGroup) map[string][]hawkes.Event {
	out := map[string][]hawkes.Event{}
	for _, a := range res.Associations {
		c := &res.Clusters[a.ClusterID]
		if !inGroup(c, group) {
			continue
		}
		p := &res.Dataset.Posts[a.PostIndex]
		t := p.Timestamp.Sub(res.Dataset.Start).Hours() / 24
		key := memeKey(res, a)
		out[key] = append(out[key], hawkes.Event{Time: t, Process: int(p.Community)})
	}
	return out
}

// fitCache memoises per-meme attributions for one pipeline result and one
// InfluenceConfig (a Report's never change), which leaves the event series
// to tell two fits apart, so that is the key. Group membership is decided
// per cluster while a meme is a KYM entry, so one entry's series can differ
// between groups; where a group holds all of an entry's clusters the series
// is the all-memes one and its fit is reused.
//
// A series is fitted once however many callers want it at the same time:
// the first caller fits, and the others wait for its answer. A fit that
// fails or is cancelled leaves nothing behind, so a later call fits again.
type fitCache struct {
	mu     sync.Mutex
	calls  map[string]*fitCall
	fitted int // series fitted and stored
	reused int // series answered from calls
}

// fitCall is one series' fit: done is closed once att and err are set.
type fitCall struct {
	done chan struct{}
	att  *hawkes.Attribution
	err  error
}

func newFitCache() *fitCache { return &fitCache{calls: map[string]*fitCall{}} }

// seriesKey spells an event series out as a map key.
func seriesKey(events []hawkes.Event) string {
	b := make([]byte, 0, 9*len(events))
	for _, e := range events {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Time))
		b = append(b, byte(e.Process))
	}
	return string(b)
}

// attribution fits one Hawkes model to the series and attributes every event
// to a root-cause community, or returns what an earlier or concurrent call
// computed for the same series. The result is shared: callers must not
// modify it.
func (c *fitCache) attribution(ctx context.Context, events []hawkes.Event, cfg hawkes.FitConfig) (*hawkes.Attribution, error) {
	key := seriesKey(events)
	for {
		c.mu.Lock()
		call, ok := c.calls[key]
		if !ok {
			call = &fitCall{done: make(chan struct{})}
			c.calls[key] = call
			c.mu.Unlock()
			return c.fit(ctx, key, call, events, cfg)
		}
		c.mu.Unlock()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if call.err == nil {
			c.mu.Lock()
			c.reused++
			c.mu.Unlock()
			return call.att, nil
		}
		// The fit this call waited for failed under its own caller's ctx and
		// is gone from the map: try again under ours.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// fit runs the call that attribution registered under key.
func (c *fitCache) fit(ctx context.Context, key string, call *fitCall, events []hawkes.Event, cfg hawkes.FitConfig) (*hawkes.Attribution, error) {
	defer close(call.done)
	fit, err := hawkes.FitCtx(ctx, events, cfg)
	if err != nil {
		call.err = fmt.Errorf("fitting: %w", err)
	} else if att, err := hawkes.Attribute(fit); err != nil {
		call.err = fmt.Errorf("attributing: %w", err)
	} else {
		call.att = att
	}
	c.mu.Lock()
	if call.err != nil {
		delete(c.calls, key)
	} else {
		c.fitted++
	}
	c.mu.Unlock()
	return call.att, call.err
}

// fitGroupCtx fits one Hawkes model per meme (as the paper does for each of
// its 12.6K clusters), attributes every event to a root-cause community, and
// aggregates the per-meme attributions into the group's influence matrices
// and, when keepSamples is set, the per-event attribution samples used for
// KS testing: samples[src][dst] holds one mass per event on dst.
//
// The fits run concurrently (each is a self-contained EM loop, or a lookup
// in cache), but the aggregation folds them serially in sorted meme-key
// order — float accumulation is not associative, so a deterministic fold
// order is what makes the matrices bitwise-identical across worker counts
// and between the offline and served paths. Fits that finished before ctx
// was cancelled stay in cache for a later call.
func fitGroupCtx(ctx context.Context, res *pipeline.Result, group MemeGroup, cfg InfluenceConfig, cache *fitCache, keepSamples bool) (*InfluenceResult, [][][]float64, error) {
	if cfg.Omega <= 0 || cfg.MaxIter <= 0 {
		return nil, nil, errors.New("analysis: invalid influence configuration")
	}
	byMeme := eventsByMeme(res, group)
	if len(byMeme) == 0 {
		return nil, nil, fmt.Errorf("analysis: no events for meme group %v", group)
	}
	keys := make([]string, 0, len(byMeme))
	for key := range byMeme {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	horizon := res.Dataset.End.Sub(res.Dataset.Start).Hours()/24 + 1
	k := dataset.NumCommunities

	// Fit phase: one independent Hawkes fit + attribution per meme that has
	// enough events; nil marks the small memes handled in the fold below.
	atts, err := parallel.MapErrCtx(ctx, len(keys), res.Config.Workers, func(i int) (*hawkes.Attribution, error) {
		events := byMeme[keys[i]]
		if len(events) < cfg.MinEventsPerFit {
			return nil, nil
		}
		fitCfg := hawkes.DefaultFitConfig(k, horizon)
		fitCfg.Omega = cfg.Omega
		fitCfg.MaxIter = cfg.MaxIter
		att, err := cache.attribution(ctx, events, fitCfg)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v events: %w", group, err)
		}
		return att, nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Fold phase: serial, in sorted key order.
	agg := newGroupAttribution(k)
	if keepSamples {
		perDst := make([]int, k)
		for _, key := range keys {
			for _, e := range byMeme[key] {
				perDst[e.Process]++
			}
		}
		agg.reserveSamples(perDst)
	}
	for i, key := range keys {
		att := atts[i]
		if att == nil {
			// Too little data to infer cross-community excitation: each event
			// is credited to its own community's background.
			for _, e := range byMeme[key] {
				agg.add(e.Process, e.Process, 1)
				agg.addSample(e.Process, e.Process, 1)
				for src := 0; src < k; src++ {
					if src != e.Process {
						agg.addSample(src, e.Process, 0)
					}
				}
				agg.destTotals[e.Process]++
				agg.srcTotals[e.Process]++
			}
			continue
		}
		for j, e := range att.Events {
			agg.destTotals[e.Process]++
			agg.srcTotals[e.Process]++
			for src := 0; src < k; src++ {
				agg.add(src, e.Process, att.RootCause[j][src])
				agg.addSample(src, e.Process, att.RootCause[j][src])
			}
		}
	}

	names := make([]string, k)
	for i, c := range dataset.Communities() {
		names[i] = c.String()
	}
	norm := agg.normalizedMatrix()
	summary := &InfluenceResult{
		Group:         group,
		Communities:   names,
		Events:        agg.eventCounts(),
		Raw:           agg.rawMatrix(),
		Normalized:    norm,
		TotalExternal: externalInfluence(norm),
		Total:         totalInfluence(norm),
	}
	return summary, agg.samples, nil
}

// groupAttribution accumulates attribution mass across per-meme fits.
type groupAttribution struct {
	k          int
	attributed [][]float64 // [src][dst] expected events on dst rooted in src
	destTotals []float64
	srcTotals  []float64
	// samples[src][dst] holds the per-event attribution masses, used by the
	// KS comparisons of Figures 13-16; nil unless reserveSamples was called.
	samples [][][]float64
}

func newGroupAttribution(k int) *groupAttribution {
	g := &groupAttribution{
		k:          k,
		attributed: make([][]float64, k),
		destTotals: make([]float64, k),
		srcTotals:  make([]float64, k),
	}
	for i := 0; i < k; i++ {
		g.attributed[i] = make([]float64, k)
	}
	return g
}

// reserveSamples turns sample collection on, with every samples[src][dst]
// cut from one backing array to hold perDst[dst] masses.
func (g *groupAttribution) reserveSamples(perDst []int) {
	total := 0
	for _, n := range perDst {
		total += n
	}
	backing := make([]float64, g.k*total)
	g.samples = make([][][]float64, g.k)
	off := 0
	for src := range g.samples {
		g.samples[src] = make([][]float64, g.k)
		for dst, n := range perDst {
			g.samples[src][dst] = backing[off : off : off+n]
			off += n
		}
	}
}

func (g *groupAttribution) add(src, dst int, mass float64) {
	g.attributed[src][dst] += mass
}

func (g *groupAttribution) addSample(src, dst int, mass float64) {
	if g.samples != nil {
		g.samples[src][dst] = append(g.samples[src][dst], mass)
	}
}

func (g *groupAttribution) eventCounts() []int {
	out := make([]int, g.k)
	for i, v := range g.destTotals {
		out[i] = int(v + 0.5)
	}
	return out
}

func (g *groupAttribution) rawMatrix() [][]float64 {
	out := make([][]float64, g.k)
	for src := 0; src < g.k; src++ {
		out[src] = make([]float64, g.k)
		for dst := 0; dst < g.k; dst++ {
			if g.destTotals[dst] > 0 {
				out[src][dst] = g.attributed[src][dst] / g.destTotals[dst]
			}
		}
	}
	return out
}

func (g *groupAttribution) normalizedMatrix() [][]float64 {
	out := make([][]float64, g.k)
	for src := 0; src < g.k; src++ {
		out[src] = make([]float64, g.k)
		for dst := 0; dst < g.k; dst++ {
			if g.srcTotals[src] > 0 {
				out[src][dst] = g.attributed[src][dst] / g.srcTotals[src]
			}
		}
	}
	return out
}

// externalInfluence sums each source's normalized influence over every
// destination but itself.
func externalInfluence(norm [][]float64) []float64 {
	out := make([]float64, len(norm))
	for src, row := range norm {
		for dst, v := range row {
			if dst != src {
				out[src] += v
			}
		}
	}
	return out
}

// totalInfluence sums each source's normalized influence over every
// destination, itself included.
func totalInfluence(norm [][]float64) []float64 {
	out := make([]float64, len(norm))
	for src, row := range norm {
		for _, v := range row {
			out[src] += v
		}
	}
	return out
}

// EstimateInfluence fits per-meme Hawkes models to the posting events of the
// given meme group and aggregates them into the raw and normalized influence
// matrices (Figures 11 and 12).
func EstimateInfluence(res *pipeline.Result, group MemeGroup, cfg InfluenceConfig) (*InfluenceResult, error) {
	return EstimateInfluenceCtx(context.Background(), res, group, cfg)
}

// EstimateInfluenceCtx is EstimateInfluence with cooperative cancellation:
// the per-meme fits run in parallel (bounded by the result's worker
// configuration) and stop promptly when ctx is cancelled. For the same
// result, group, and configuration it returns bitwise-identical matrices to
// EstimateInfluence, for any worker count — the serving layer's contract.
func EstimateInfluenceCtx(ctx context.Context, res *pipeline.Result, group MemeGroup, cfg InfluenceConfig) (*InfluenceResult, error) {
	summary, _, err := fitGroupCtx(ctx, res, group, cfg, newFitCache(), false)
	return summary, err
}

// GroupComparison holds the Figures 13-16 content: influence matrices for a
// meme group and its complement, plus per-cell KS significance of the
// difference in attribution distributions.
type GroupComparison struct {
	Group      *InfluenceResult
	Complement *InfluenceResult
	// Significant[src][dst] reports whether the difference between the group
	// and its complement in the per-event probability mass attributed to src
	// on destination dst is statistically significant (two-sample KS test,
	// p < 0.01), matching the asterisks of Figures 13-16.
	Significant [][]bool
}

func compareGroups(ctx context.Context, res *pipeline.Result, group, complement MemeGroup, cfg InfluenceConfig, cache *fitCache) (*GroupComparison, error) {
	g, gSamples, err := fitGroupCtx(ctx, res, group, cfg, cache, true)
	if err != nil {
		return nil, err
	}
	c, cSamples, err := fitGroupCtx(ctx, res, complement, cfg, cache, true)
	if err != nil {
		return nil, err
	}
	k := len(g.Communities)
	sig := make([][]bool, k)
	for src := 0; src < k; src++ {
		sig[src] = make([]bool, k)
		for dst := 0; dst < k; dst++ {
			a := gSamples[src][dst]
			b := cSamples[src][dst]
			if len(a) < 5 || len(b) < 5 {
				continue
			}
			// The samples are this call's own: sort them where they lie.
			sort.Float64s(a)
			sort.Float64s(b)
			ks, err := stats.KSTestSorted(a, b)
			if err != nil {
				continue
			}
			sig[src][dst] = ks.Significant
		}
	}
	return &GroupComparison{Group: g, Complement: c, Significant: sig}, nil
}

// AttributionToy reproduces the mechanics of Figure 10 on a three-process
// toy model: process B excites A and C, and the attribution should credit B
// as the dominant external root cause of both.
type AttributionToy struct {
	Raw        [][]float64
	Normalized [][]float64
	Events     []int
}

// RunAttributionToy simulates and fits the Figure 10 toy scenario.
func RunAttributionToy(seed int64) (*AttributionToy, error) {
	m := hawkes.NewModel(3, 1.0)
	m.Mu[0], m.Mu[1], m.Mu[2] = 0.02, 0.5, 0.02
	m.W[1][0] = 0.4
	m.W[1][2] = 0.4
	rng := rand.New(rand.NewSource(seed))
	events, err := m.Simulate(rng, 600)
	if err != nil {
		return nil, err
	}
	fit, err := hawkes.Fit(events, hawkes.DefaultFitConfig(3, 600))
	if err != nil {
		return nil, err
	}
	att, err := hawkes.Attribute(fit)
	if err != nil {
		return nil, err
	}
	return &AttributionToy{
		Raw:        att.InfluenceMatrix(),
		Normalized: att.NormalizedInfluenceMatrix(),
		Events:     hawkes.CountByProcess(fit.Events, 3),
	}, nil
}

// AnnotationQuality reproduces Appendix B using the simulated annotator
// panel calibrated to the paper's kappa and accuracy.
func AnnotationQuality() (annotate.PanelResult, error) {
	return annotate.RunPanel(annotate.DefaultPanelConfig())
}
