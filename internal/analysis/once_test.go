package analysis

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/hawkes"
	"github.com/memes-pipeline/memes/internal/pipeline"
)

var allGroups = []MemeGroup{AllMemes, RacistMemes, NonRacistMemes, PoliticalMemes, NonPoliticalMemes}

// requireSameInfluence fails unless got equals want bit for bit.
func requireSameInfluence(t *testing.T, got, want *InfluenceResult) {
	t.Helper()
	if got.Group != want.Group || !reflect.DeepEqual(got.Communities, want.Communities) || !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("%v: group, communities or event counts differ", want.Group)
	}
	vectors := func(r *InfluenceResult) [][]float64 {
		out := [][]float64{r.TotalExternal, r.Total}
		out = append(out, r.Raw...)
		return append(out, r.Normalized...)
	}
	g, w := vectors(got), vectors(want)
	if len(g) != len(w) {
		t.Fatalf("%v: %d vectors, want %d", want.Group, len(g), len(w))
	}
	for i := range w {
		if len(g[i]) != len(w[i]) {
			t.Fatalf("%v: vector %d has %d entries, want %d", want.Group, i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			if math.Float64bits(g[i][j]) != math.Float64bits(w[i][j]) {
				t.Fatalf("%v: vector %d entry %d = %v, want %v", want.Group, i, j, g[i][j], w[i][j])
			}
		}
	}
}

// TestReportComputesEachInputOnce: one Sections() fits every distinct event
// series once however many of the five groups it appears in, scans /pol/'s
// neighbourhoods once for both eps sweeps, and leaves the process-wide
// experiments to the first Report that needed them.
func TestReportComputesEachInputOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow; skipped in -short mode")
	}
	res := getRun(t)
	cfg := DefaultInfluenceConfig()
	distinct := map[string]bool{}
	fittable := 0
	for _, g := range allGroups {
		for _, events := range eventsByMeme(res, g) {
			if len(events) >= cfg.MinEventsPerFit {
				fittable++
				distinct[seriesKey(events)] = true
			}
		}
	}
	if len(distinct) == 0 || len(distinct) == fittable {
		t.Fatalf("corpus has %d fittable series, %d distinct: nothing to share", fittable, len(distinct))
	}

	first := NewReport(res)
	sweeps := sweepsRun.Load()
	cold, err := first.Sections()
	if err != nil {
		t.Fatal(err)
	}
	if first.fits.fitted != len(distinct) || first.fits.reused != fittable-len(distinct) {
		t.Errorf("fits run/reused = %d/%d, want %d/%d", first.fits.fitted, first.fits.reused, len(distinct), fittable-len(distinct))
	}
	if got := sweepsRun.Load() - sweeps; got != 1 {
		t.Errorf("Table 8 and Figure 17 ran %d neighbourhood scans, want 1", got)
	}

	// The same Report again: everything is answered from what it holds.
	if _, err := first.Sections(); err != nil {
		t.Fatal(err)
	}
	if first.fits.fitted != len(distinct) {
		t.Errorf("a second Sections() ran %d more fits", first.fits.fitted-len(distinct))
	}
	if got := sweepsRun.Load() - sweeps; got != 1 {
		t.Errorf("a second Sections() scanned again (%d scans)", got)
	}

	// A fresh Report fits and scans for itself but not the constants, and
	// renders the same bytes as the one that computed them.
	second := NewReport(res)
	warm, err := second.Sections()
	if err != nil {
		t.Fatal(err)
	}
	if got := experimentsRun.Load(); got != 1 {
		t.Errorf("screenshot.RunExperiment ran %d times in this process, want 1", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("the first report of the process and a later one differ")
	}
}

// TestFitCacheMatchesUncachedFits: whatever order the groups warm the cache
// in, every group's matrices equal those of fits made for that group alone.
func TestFitCacheMatchesUncachedFits(t *testing.T) {
	res := getRun(t)
	cfg := DefaultInfluenceConfig()
	cache := newFitCache()
	for _, g := range []MemeGroup{NonPoliticalMemes, RacistMemes, AllMemes, PoliticalMemes, NonRacistMemes, AllMemes} {
		want, err := EstimateInfluence(res, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := fitGroupCtx(context.Background(), res, g, cfg, cache, false)
		if err != nil {
			t.Fatal(err)
		}
		requireSameInfluence(t, got, want)
	}
	if cache.reused == 0 {
		t.Error("no fit was shared between groups")
	}
}

// countdownCtx reports cancellation from its (left+1)-th Err call on: a
// cancel that lands inside one particular EM iteration, without timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestFitCacheSurvivesCancellation(t *testing.T) {
	serial := *getRun(t)
	serial.Config.Workers = 1 // a reproducible sequence of Err calls
	cfg := DefaultInfluenceConfig()
	want, err := EstimateInfluence(&serial, AllMemes, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Count the Err calls of a whole pass, then cancel half-way through one.
	const budget = 1 << 40
	probe := &countdownCtx{Context: context.Background()}
	probe.left.Store(budget)
	whole := newFitCache()
	if _, _, err := fitGroupCtx(probe, &serial, AllMemes, cfg, whole, false); err != nil {
		t.Fatal(err)
	}
	calls := budget - probe.left.Load()

	cache := newFitCache()
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(calls / 2)
	if _, _, err := fitGroupCtx(ctx, &serial, AllMemes, cfg, cache, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-fit: err = %v, want context.Canceled", err)
	}
	partial := cache.fitted
	if partial == 0 || partial >= whole.fitted {
		t.Fatalf("cancelled pass stored %d of %d fits, want some but not all", partial, whole.fitted)
	}

	got, _, err := fitGroupCtx(context.Background(), &serial, AllMemes, cfg, cache, false)
	if err != nil {
		t.Fatal(err)
	}
	if cache.reused != partial || cache.fitted != whole.fitted {
		t.Errorf("second pass reused %d and holds %d fits, want %d and %d", cache.reused, cache.fitted, partial, whole.fitted)
	}
	requireSameInfluence(t, got, want)
}

// TestReportSharedAcrossGoroutines renders the sections that share a
// Report's fits and sweep from several goroutines at once (run under -race)
// and holds each to what a Report of its own renders.
func TestReportSharedAcrossGoroutines(t *testing.T) {
	res := getRun(t)
	shared := NewReport(res)
	renders := []func(*Report) (string, error){
		(*Report).RenderInfluenceAll, (*Report).RenderInfluenceRacist, (*Report).RenderInfluencePolitical,
		(*Report).RenderTable8, (*Report).RenderFigure17, (*Report).RenderFigure10,
	}
	got := make([]string, len(renders))
	errs := make([]error, len(renders))
	var wg sync.WaitGroup
	for i, render := range renders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = render(shared)
		}()
	}
	wg.Wait()
	for i, render := range renders {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		own := NewReport(res)
		want, err := render(own)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("section %d rendered concurrently:\n%s\nwant:\n%s", i, got[i], want)
		}
	}
}

// withWorkers returns a copy of res whose stages, the report's sections
// among them, fan out on workers goroutines.
func withWorkers(res *pipeline.Result, workers int) *pipeline.Result {
	cp := *res
	cp.Config.Workers = workers
	return &cp
}

// TestReportConcurrentMatchesSerial: the sections rendered concurrently are
// the ones each renderer gives when called alone, in paper order, and the
// report text is the same bytes at every worker count.
func TestReportConcurrentMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow; skipped in -short mode")
	}
	res := getRun(t)
	one := NewReport(withWorkers(res, 1))
	var want []Section
	for _, s := range one.sectionList() {
		text, err := s.render(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, Section{Title: s.title, Body: text})
	}
	var text string
	for _, workers := range []int{1, 2, 8} {
		r := NewReport(withWorkers(res, workers))
		got, err := r.Sections()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: sections differ from rendering them one by one", workers)
		}
		fresh := NewReport(withWorkers(res, workers))
		all, err := fresh.RenderAll()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			text = all
		} else if all != text {
			t.Errorf("workers=%d: RenderAll differs from workers=1", workers)
		}
	}
}

// TestConcurrentReportFitsOnce: however the sections interleave, and with
// two goroutines rendering one Report at once, every distinct series is
// fitted once and /pol/ is swept once. Repeated, so a double fit that
// needs an unlucky schedule still has chances to show.
func TestConcurrentReportFitsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full reports are slow; skipped in -short mode")
	}
	res := withWorkers(getRun(t), 8)
	cfg := DefaultInfluenceConfig()
	distinct := map[string]bool{}
	fittable := 0
	for _, g := range allGroups {
		for _, events := range eventsByMeme(res, g) {
			if len(events) >= cfg.MinEventsPerFit {
				fittable++
				distinct[seriesKey(events)] = true
			}
		}
	}
	for rep := 0; rep < 20; rep++ {
		r := NewReport(res)
		sweeps := sweepsRun.Load()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = r.Sections()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if r.fits.fitted != len(distinct) || r.fits.reused != 2*fittable-len(distinct) {
			t.Fatalf("rep %d: fits run/reused = %d/%d, want %d/%d", rep, r.fits.fitted, r.fits.reused, len(distinct), 2*fittable-len(distinct))
		}
		if got := sweepsRun.Load() - sweeps; got != 1 {
			t.Fatalf("rep %d: %d neighbourhood scans, want 1", rep, got)
		}
	}
}

// tripCtx is cancelled by its (left+1)-th Err call: a cancel that lands
// part-way through a report, seen by Err and Done alike.
type tripCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestReportCancelledMidway: a report whose context is cancelled while its
// sections run returns context.Canceled and leaves no goroutine behind.
func TestReportCancelledMidway(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow; skipped in -short mode")
	}
	res := withWorkers(getRun(t), 8)
	const budget = 1 << 40
	probe := &tripCtx{Context: context.Background(), cancel: func() {}}
	probe.left.Store(budget)
	r := NewReport(res)
	if _, err := r.SectionsCtx(probe); err != nil {
		t.Fatal(err)
	}
	calls := budget - probe.left.Load()

	baseline := runtime.NumGoroutine()
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &tripCtx{Context: inner, cancel: cancel}
	ctx.left.Store(calls / 2)
	r = NewReport(res)
	if _, err := r.SectionsCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-report: err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled report, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFitCacheSingleFlight: callers that ask for one series at once share
// one fit, and a fit whose caller is cancelled leaves the series to the
// next caller instead of failing it.
func TestFitCacheSingleFlight(t *testing.T) {
	res := getRun(t)
	cfg := DefaultInfluenceConfig()
	var events []hawkes.Event
	for _, ev := range eventsByMeme(res, AllMemes) {
		if len(ev) > len(events) {
			events = ev
		}
	}
	horizon := res.Dataset.End.Sub(res.Dataset.Start).Hours()/24 + 1
	fitCfg := hawkes.DefaultFitConfig(dataset.NumCommunities, horizon)
	fitCfg.Omega, fitCfg.MaxIter = cfg.Omega, cfg.MaxIter

	cache := newFitCache()
	const callers = 8
	atts := make([]*hawkes.Attribution, callers)
	var wg sync.WaitGroup
	for i := range atts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if atts[i], err = cache.attribution(context.Background(), events, fitCfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if cache.fitted != 1 || cache.reused != callers-1 {
		t.Fatalf("fits run/reused = %d/%d, want 1/%d", cache.fitted, cache.reused, callers-1)
	}
	for _, att := range atts[1:] {
		if att != atts[0] {
			t.Fatal("concurrent callers got different attributions")
		}
	}

	cache = newFitCache()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.attribution(cancelled, events, fitCfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fit: err = %v, want context.Canceled", err)
	}
	if len(cache.calls) != 0 {
		t.Fatal("a cancelled fit stayed in the cache")
	}
	att, err := cache.attribution(context.Background(), events, fitCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cache.fitted != 1 || !reflect.DeepEqual(att, atts[0]) {
		t.Fatal("the fit after a cancelled one differs from an uncontended fit")
	}
}
