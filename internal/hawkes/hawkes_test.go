package hawkes

import (
	"math"
	"math/rand"
	"testing"
)

// twoProcessModel builds a small stable two-process model with asymmetric
// cross-excitation: process 0 strongly excites process 1, but not vice
// versa.
func twoProcessModel() *Model {
	m := NewModel(2, 1.0)
	m.Mu[0] = 0.4
	m.Mu[1] = 0.2
	m.W[0][0] = 0.2
	m.W[0][1] = 0.4
	m.W[1][0] = 0.02
	m.W[1][1] = 0.1
	return m
}

func TestModelValidate(t *testing.T) {
	if err := twoProcessModel().Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := NewModel(2, 1.0)
	bad.Mu[0] = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative mu should be rejected")
	}
	bad2 := NewModel(2, 0)
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero omega should be rejected")
	}
	bad3 := NewModel(2, 1)
	bad3.W[0][1] = math.NaN()
	if err := bad3.Validate(); err == nil {
		t.Fatal("NaN weight should be rejected")
	}
	bad4 := &Model{K: 0}
	if err := bad4.Validate(); err == nil {
		t.Fatal("zero processes should be rejected")
	}
	bad5 := NewModel(2, 1)
	bad5.W[1] = []float64{0.1}
	if err := bad5.Validate(); err == nil {
		t.Fatal("ragged W should be rejected")
	}
}

func TestSpectralRadiusBound(t *testing.T) {
	m := twoProcessModel()
	if got := m.SpectralRadiusBound(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("bound = %v, want 0.6", got)
	}
}

func TestSortEventsAndCounts(t *testing.T) {
	events := []Event{{Time: 3, Process: 1}, {Time: 1, Process: 0}, {Time: 2, Process: 1}}
	if err := SortEvents(events, 2); err != nil {
		t.Fatal(err)
	}
	if events[0].Time != 1 || events[2].Time != 3 {
		t.Fatalf("events not sorted: %+v", events)
	}
	counts := CountByProcess(events, 2)
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if err := SortEvents([]Event{{Time: 1, Process: 5}}, 2); err == nil {
		t.Fatal("out-of-range process should be rejected")
	}
	if err := SortEvents([]Event{{Time: math.NaN(), Process: 0}}, 2); err == nil {
		t.Fatal("NaN time should be rejected")
	}
}

func TestIntensity(t *testing.T) {
	m := twoProcessModel()
	history := []Event{{Time: 1, Process: 0}}
	// Just after the event, intensity of process 1 is elevated above its
	// background by ~W[0][1]*Omega.
	lam := m.Intensity(1, 1.001, history)
	if lam <= m.Mu[1] {
		t.Fatalf("intensity %v should exceed background %v", lam, m.Mu[1])
	}
	// Long after the event, it has relaxed back to the background.
	lamLate := m.Intensity(1, 50, history)
	if math.Abs(lamLate-m.Mu[1]) > 1e-6 {
		t.Fatalf("intensity should relax to background, got %v", lamLate)
	}
	// Events at or after t do not contribute.
	lamBefore := m.Intensity(1, 1.0, history)
	if math.Abs(lamBefore-m.Mu[1]) > 1e-12 {
		t.Fatalf("event at t should not contribute, got %v", lamBefore)
	}
}

func TestSimulateBasicProperties(t *testing.T) {
	m := twoProcessModel()
	rng := rand.New(rand.NewSource(1))
	events, err := m.Simulate(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("expected events")
	}
	prev := -1.0
	for _, e := range events {
		if e.Time < prev {
			t.Fatal("events not sorted by time")
		}
		prev = e.Time
		if e.Time < 0 || e.Time >= 500 {
			t.Fatalf("event time %v outside horizon", e.Time)
		}
		if e.Process < 0 || e.Process >= 2 {
			t.Fatalf("invalid process %d", e.Process)
		}
	}
	// Expected count: total rate = mu_total / (1 - branching). Rough check
	// that we are within a factor of two of the analytic expectation.
	counts := CountByProcess(events, 2)
	total := counts[0] + counts[1]
	if total < 200 || total > 2000 {
		t.Fatalf("implausible event count %d", total)
	}
}

func TestSimulateErrors(t *testing.T) {
	m := twoProcessModel()
	rng := rand.New(rand.NewSource(1))
	if _, err := m.Simulate(rng, -5); err == nil {
		t.Fatal("negative horizon should fail")
	}
	super := NewModel(1, 1)
	super.Mu[0] = 1
	super.W[0][0] = 1.5
	if _, err := super.Simulate(rng, 10); err == nil {
		t.Fatal("supercritical model should fail")
	}
	invalid := NewModel(1, 0)
	if _, err := invalid.Simulate(rng, 10); err == nil {
		t.Fatal("invalid model should fail")
	}
}

func TestSimulateWithGroundTruthRootsValid(t *testing.T) {
	m := twoProcessModel()
	rng := rand.New(rand.NewSource(2))
	events, roots, err := m.SimulateWithGroundTruth(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(roots) {
		t.Fatalf("events/roots length mismatch: %d vs %d", len(events), len(roots))
	}
	prev := -1.0
	for i, e := range events {
		if e.Time < prev {
			t.Fatal("events not sorted")
		}
		prev = e.Time
		if roots[i] < 0 || roots[i] >= 2 {
			t.Fatalf("invalid root %d", roots[i])
		}
	}
	// With W[0][1] >> W[1][0], a sizeable share of process-1 events should be
	// rooted in process 0, and almost no process-0 events rooted in 1.
	rootedInOther := 0
	proc1 := 0
	for i, e := range events {
		if e.Process == 1 {
			proc1++
			if roots[i] == 0 {
				rootedInOther++
			}
		}
	}
	if proc1 == 0 {
		t.Fatal("no process-1 events")
	}
	if float64(rootedInOther)/float64(proc1) < 0.1 {
		t.Fatalf("expected a sizeable fraction of process-1 events rooted in 0, got %d/%d", rootedInOther, proc1)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, mean := range []float64{0, 0.5, 3, 50} {
		sum := 0
		const n = 3000
		for i := 0; i < n; i++ {
			sum += poisson(rng, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.15*mean+0.05 {
			t.Errorf("poisson mean %v: sample mean %v", mean, got)
		}
	}
}

func TestFitConfigValidate(t *testing.T) {
	if err := DefaultFitConfig(5, 100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []FitConfig{
		{K: 0, Horizon: 10, Omega: 1, MaxIter: 10},
		{K: 2, Horizon: 0, Omega: 1, MaxIter: 10},
		{K: 2, Horizon: 10, Omega: 0, MaxIter: 10},
		{K: 2, Horizon: 10, Omega: 1, MaxIter: 0},
		{K: 2, Horizon: 10, Omega: 1, MaxIter: 10, Tolerance: -1},
		{K: 2, Horizon: 10, Omega: 1, MaxIter: 10, MuPrior: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
}

func TestFitEmptyEvents(t *testing.T) {
	res, err := Fit(nil, DefaultFitConfig(3, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Events) != 0 {
		t.Fatalf("unexpected result for empty events: %+v", res)
	}
}

func TestFitRejectsOutOfWindowEvents(t *testing.T) {
	cfg := DefaultFitConfig(2, 10)
	if _, err := Fit([]Event{{Time: 11, Process: 0}}, cfg); err == nil {
		t.Fatal("event beyond horizon should be rejected")
	}
	if _, err := Fit([]Event{{Time: -1, Process: 0}}, cfg); err == nil {
		t.Fatal("negative event time should be rejected")
	}
	if _, err := Fit([]Event{{Time: 1, Process: 7}}, cfg); err == nil {
		t.Fatal("out-of-range process should be rejected")
	}
}

func TestFitRecoversGroundTruth(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(7))
	const horizon = 4000.0
	events, err := truth.Simulate(rng, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFitConfig(2, horizon)
	cfg.Omega = truth.Omega
	res, err := Fit(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	// Background rates within 30% relative error.
	for p := 0; p < 2; p++ {
		if rel := math.Abs(m.Mu[p]-truth.Mu[p]) / truth.Mu[p]; rel > 0.3 {
			t.Errorf("Mu[%d] = %v, want ~%v", p, m.Mu[p], truth.Mu[p])
		}
	}
	// The dominant cross weight W[0][1] must be recovered clearly above the
	// negligible reverse weight W[1][0].
	if m.W[0][1] < 0.2 {
		t.Errorf("W[0][1] = %v, want near 0.4", m.W[0][1])
	}
	if m.W[1][0] > 0.15 {
		t.Errorf("W[1][0] = %v, want near 0.02", m.W[1][0])
	}
	if m.W[0][1] <= m.W[1][0] {
		t.Errorf("asymmetry not recovered: W[0][1]=%v W[1][0]=%v", m.W[0][1], m.W[1][0])
	}
	if res.Iterations == 0 {
		t.Error("no iterations performed")
	}
}

func TestFitResponsibilitiesNormalized(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(9))
	events, err := truth.Simulate(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(events, DefaultFitConfig(2, 300))
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Events {
		sum := res.BackgroundResponsibility[j]
		for a := 0; a < 2; a++ {
			sum += res.SourceResponsibility[j][a]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("responsibilities of event %d sum to %v", j, sum)
		}
	}
}

func TestFitImprovesLikelihoodOverInitialModel(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(11))
	const horizon = 1000.0
	events, err := truth.Simulate(rng, horizon)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(events, DefaultFitConfig(2, horizon))
	if err != nil {
		t.Fatal(err)
	}
	// The fitted likelihood should not be far below the truth's likelihood.
	llFit := LogLikelihood(res.Model, res.Events, horizon)
	llTruth := LogLikelihood(truth, res.Events, horizon)
	if llFit < llTruth-0.05*math.Abs(llTruth) {
		t.Fatalf("fitted log likelihood %v much worse than truth %v", llFit, llTruth)
	}
}

func TestAttributeRowsSumToOne(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(13))
	events, err := truth.Simulate(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(events, DefaultFitConfig(2, 500))
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attribute(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.RootCause) != len(res.Events) {
		t.Fatal("attribution length mismatch")
	}
	for j, row := range att.RootCause {
		sum := 0.0
		for _, v := range row {
			if v < -1e-12 {
				t.Fatalf("negative root-cause probability at event %d", j)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("root-cause row %d sums to %v", j, sum)
		}
	}
}

func TestAttributeErrors(t *testing.T) {
	if _, err := Attribute(nil); err == nil {
		t.Fatal("nil fit should be rejected")
	}
	broken := &FitResult{Model: NewModel(2, 1), Events: []Event{{Time: 1, Process: 0}}}
	if _, err := Attribute(broken); err == nil {
		t.Fatal("missing responsibilities should be rejected")
	}
}

func TestAttributeRecoversAsymmetricInfluence(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(17))
	const horizon = 3000.0
	events, gtRoots, err := truth.SimulateWithGroundTruth(rng, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFitConfig(2, horizon)
	res, err := Fit(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attribute(res)
	if err != nil {
		t.Fatal(err)
	}
	raw := att.InfluenceMatrix()
	// Influence of 0 on 1 should clearly exceed influence of 1 on 0,
	// mirroring the ground-truth asymmetry.
	if raw[0][1] <= raw[1][0] {
		t.Fatalf("asymmetry not recovered: raw[0][1]=%v raw[1][0]=%v", raw[0][1], raw[1][0])
	}
	// Compare against the ground-truth fraction of process-1 events rooted
	// in process 0.
	proc1 := 0
	rooted0 := 0
	for i, e := range events {
		if e.Process == 1 {
			proc1++
			if gtRoots[i] == 0 {
				rooted0++
			}
		}
	}
	gtFrac := float64(rooted0) / float64(proc1)
	if math.Abs(raw[0][1]-gtFrac) > 0.15 {
		t.Fatalf("estimated influence %v far from ground truth %v", raw[0][1], gtFrac)
	}
	// Columns of the raw influence matrix sum to ~1 (every destination event
	// has a root cause somewhere).
	for dst := 0; dst < 2; dst++ {
		col := raw[0][dst] + raw[1][dst]
		if math.Abs(col-1) > 1e-6 {
			t.Fatalf("raw influence column %d sums to %v", dst, col)
		}
	}
}

func TestNormalizedInfluenceAndTotals(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(19))
	events, err := truth.Simulate(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(events, DefaultFitConfig(2, 1000))
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attribute(res)
	if err != nil {
		t.Fatal(err)
	}
	norm := att.NormalizedInfluenceMatrix()
	counts := CountByProcess(res.Events, 2)
	raw := att.InfluenceMatrix()
	// Cross-check: norm[src][dst] * count[src] == raw[src][dst] * count[dst].
	for s := 0; s < 2; s++ {
		for d := 0; d < 2; d++ {
			lhs := norm[s][d] * float64(counts[s])
			rhs := raw[s][d] * float64(counts[d])
			if math.Abs(lhs-rhs) > 1e-6*(1+math.Abs(lhs)) {
				t.Fatalf("normalization inconsistent at (%d,%d): %v vs %v", s, d, lhs, rhs)
			}
		}
	}
	// Totals: every event's root-cause distribution sums to 1, so the
	// normalized matrix weighted by the source counts accounts for every
	// event exactly once.
	total := 0.0
	for s := 0; s < 2; s++ {
		for d := 0; d < 2; d++ {
			total += norm[s][d] * float64(counts[s])
		}
	}
	if n := float64(len(res.Events)); math.Abs(total-n) > 1e-6*n {
		t.Fatalf("normalized influence accounts for %v events, want %v", total, n)
	}
}

func TestAttributionToyThreeProcesses(t *testing.T) {
	// Figure 10's toy: three processes where B excites A and C. Build a tiny
	// deterministic scenario and check that the attribution puts most of the
	// root cause of the induced events on B.
	m := NewModel(3, 1.0)
	m.Mu[0], m.Mu[1], m.Mu[2] = 0.01, 0.5, 0.01
	m.W[1][0] = 0.45
	m.W[1][2] = 0.45
	rng := rand.New(rand.NewSource(23))
	events, err := m.Simulate(rng, 800)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFitConfig(3, 800)
	res, err := Fit(events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attribute(res)
	if err != nil {
		t.Fatal(err)
	}
	raw := att.InfluenceMatrix()
	// B (process 1) should be the dominant external root cause for A and C.
	if raw[1][0] < raw[0][0]*0.2 && raw[1][0] < 0.3 {
		t.Errorf("B's influence on A too low: %v", raw[1][0])
	}
	if raw[1][2] < 0.3 {
		t.Errorf("B's influence on C too low: %v", raw[1][2])
	}
	// A and C barely influence each other.
	if raw[0][2] > raw[1][2] || raw[2][0] > raw[1][0] {
		t.Errorf("spurious influence between A and C: %v %v", raw[0][2], raw[2][0])
	}
}

func TestAttributeEmptyFit(t *testing.T) {
	res, err := Fit(nil, DefaultFitConfig(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	att, err := Attribute(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.RootCause) != 0 {
		t.Fatal("empty fit should give empty attribution")
	}
	for _, row := range att.NormalizedInfluenceMatrix() {
		for _, v := range row {
			if v != 0 {
				t.Fatal("empty attribution should have zero influence")
			}
		}
	}
}

func TestLogLikelihoodPrefersTrueModel(t *testing.T) {
	truth := twoProcessModel()
	rng := rand.New(rand.NewSource(29))
	events, err := truth.Simulate(rng, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// A clearly wrong model: everything is background noise at the wrong rate.
	wrong := NewModel(2, 1.0)
	wrong.Mu[0], wrong.Mu[1] = 5.0, 5.0
	llTruth := LogLikelihood(truth, events, 2000)
	llWrong := LogLikelihood(wrong, events, 2000)
	if llTruth <= llWrong {
		t.Fatalf("true model should have higher likelihood: %v vs %v", llTruth, llWrong)
	}
}
