package cli

import (
	"strings"
	"testing"
)

// compareDocs builds a baseline/fresh pair sharing the benchmark layout the
// repo's trajectory points use.
func compareDocs() (baseline, fresh *BenchDoc) {
	baseline = &BenchDoc{Label: "pr4", Benchmarks: []BenchJSON{
		{Name: "PipelineRun/workers_1", Metrics: map[string]float64{"images_per_sec": 100000}},
		{Name: "EngineAssociate/bktree", Metrics: map[string]float64{"images_per_sec": 500000}},
		{Name: "DBSCAN/workers_1", Metrics: map[string]float64{"neighbour_points_per_sec": 300000}},
		{Name: "PhashExtraction", Metrics: map[string]float64{"images_per_sec": 20000}},
	}}
	fresh = &BenchDoc{Label: "ci", Benchmarks: []BenchJSON{
		{Name: "PipelineRun/workers_1", Metrics: map[string]float64{"images_per_sec": 100000}},
		{Name: "EngineAssociate/bktree", Metrics: map[string]float64{"images_per_sec": 500000}},
		{Name: "PipelineRun/workers_8", Metrics: map[string]float64{"images_per_sec": 400000}},
	}}
	return baseline, fresh
}

var gatePrefixes = []string{"PipelineRun/", "EngineAssociate/"}

func TestCompareBenchPasses(t *testing.T) {
	baseline, fresh := compareDocs()
	if v := CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0.30); len(v) != 0 {
		t.Fatalf("identical throughput flagged: %v", v)
	}
}

func TestCompareBenchToleratesNoise(t *testing.T) {
	baseline, fresh := compareDocs()
	// 25% down is within the 30% tolerance — runner noise, not a cliff.
	fresh.Benchmarks[0].Metrics["images_per_sec"] = 75000
	if v := CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0.30); len(v) != 0 {
		t.Fatalf("within-tolerance dip flagged: %v", v)
	}
}

func TestCompareBenchCatchesRegression(t *testing.T) {
	baseline, fresh := compareDocs()
	fresh.Benchmarks[1].Metrics["images_per_sec"] = 100000 // 5x cliff
	v := CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0.30)
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if !strings.Contains(v[0], "EngineAssociate/bktree") || !strings.Contains(v[0], "regressed") {
		t.Fatalf("violation does not name the regressed benchmark: %q", v[0])
	}
}

func TestCompareBenchFlagsMissingGatedBenchmark(t *testing.T) {
	baseline, fresh := compareDocs()
	fresh.Benchmarks = fresh.Benchmarks[:1] // drop EngineAssociate/bktree
	v := CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0.30)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("missing gated benchmark not flagged: %v", v)
	}
}

func TestCompareBenchIgnoresUngatedAndExtra(t *testing.T) {
	baseline, fresh := compareDocs()
	// DBSCAN and PhashExtraction are outside the gated prefixes; the fresh
	// doc's extra workers_8 entry has no baseline. Crater the ungated one —
	// the gate must not care.
	fresh.Benchmarks = append(fresh.Benchmarks, BenchJSON{
		Name: "DBSCAN/workers_1", Metrics: map[string]float64{"neighbour_points_per_sec": 1},
	})
	if v := CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0.30); len(v) != 0 {
		t.Fatalf("ungated/extra benchmarks flagged: %v", v)
	}
}

func TestCompareBenchZeroTolerance(t *testing.T) {
	baseline, fresh := compareDocs()
	fresh.Benchmarks[0].Metrics["images_per_sec"] = 99999
	if v := CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0); len(v) != 1 {
		t.Fatalf("zero tolerance should flag any dip: %v", v)
	}
}

// allocDocs builds a baseline/fresh pair for the allocation-ceiling gate:
// two zero-alloc steady-state benchmarks and one non-zero baseline.
func allocDocs() (baseline, fresh *BenchDoc) {
	baseline = &BenchDoc{Label: "pr8", Benchmarks: []BenchJSON{
		{Name: "EngineAssociateSteady/bktree", AllocsPerOp: 0},
		{Name: "EngineMatchSteady/bktree", AllocsPerOp: 0},
		{Name: "PhashExtraction", AllocsPerOp: 0},
		{Name: "PipelineRun/workers_1", AllocsPerOp: 120000},
	}}
	fresh = &BenchDoc{Label: "ci", Benchmarks: []BenchJSON{
		{Name: "EngineAssociateSteady/bktree", AllocsPerOp: 0},
		{Name: "EngineMatchSteady/bktree", AllocsPerOp: 0},
		{Name: "PhashExtraction", AllocsPerOp: 0},
		{Name: "PipelineRun/workers_1", AllocsPerOp: 360000},
	}}
	return baseline, fresh
}

var allocGatePrefixes = []string{"EngineAssociateSteady/", "EngineMatchSteady/", "PhashExtraction"}

func TestCompareBenchAllocsPasses(t *testing.T) {
	baseline, fresh := allocDocs()
	if v := CompareBenchAllocs(baseline, fresh, allocGatePrefixes, 0.30); len(v) != 0 {
		t.Fatalf("identical alloc counts flagged: %v", v)
	}
}

func TestCompareBenchAllocsZeroBaselinePinsZero(t *testing.T) {
	baseline, fresh := allocDocs()
	// A single allocation on a zero-alloc path must fail regardless of
	// tolerance: 0 × (1+tol) is still 0.
	fresh.Benchmarks[1].AllocsPerOp = 1
	v := CompareBenchAllocs(baseline, fresh, allocGatePrefixes, 0.30)
	if len(v) != 1 {
		t.Fatalf("violations = %v, want exactly one", v)
	}
	if !strings.Contains(v[0], "EngineMatchSteady/bktree") || !strings.Contains(v[0], "grew") {
		t.Fatalf("violation does not name the regressed benchmark: %q", v[0])
	}
}

func TestCompareBenchAllocsToleratesWithinCeiling(t *testing.T) {
	baseline, fresh := allocDocs()
	baseline.Benchmarks[2].AllocsPerOp = 10
	fresh.Benchmarks[2].AllocsPerOp = 13 // ceiling at 30% is exactly 13
	if v := CompareBenchAllocs(baseline, fresh, allocGatePrefixes, 0.30); len(v) != 0 {
		t.Fatalf("within-ceiling growth flagged: %v", v)
	}
	fresh.Benchmarks[2].AllocsPerOp = 14
	if v := CompareBenchAllocs(baseline, fresh, allocGatePrefixes, 0.30); len(v) != 1 {
		t.Fatalf("above-ceiling growth not flagged: %v", v)
	}
}

func TestCompareBenchAllocsFlagsMissingGatedBenchmark(t *testing.T) {
	baseline, fresh := allocDocs()
	fresh.Benchmarks = fresh.Benchmarks[1:] // drop EngineAssociateSteady/bktree
	v := CompareBenchAllocs(baseline, fresh, allocGatePrefixes, 0.30)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("missing gated benchmark not flagged: %v", v)
	}
}

func TestCompareBenchAllocsIgnoresUngated(t *testing.T) {
	baseline, fresh := allocDocs()
	// PipelineRun triples its allocations but is outside the alloc gate.
	if v := CompareBenchAllocs(baseline, fresh, allocGatePrefixes, 0.30); len(v) != 0 {
		t.Fatalf("ungated benchmark flagged: %v", v)
	}
}

// TestCompareRefusesOtherBenchtime: every gate refuses a baseline taken at
// a different -benchtime, whatever the numbers say.
func TestCompareRefusesOtherBenchtime(t *testing.T) {
	baseline, fresh := compareDocs()
	baseline.Benchtime, fresh.Benchtime = "3x", "1s"
	for name, v := range map[string][]string{
		"CompareBench":       CompareBench(baseline, fresh, gatePrefixes, "images_per_sec", 0.30),
		"CompareBenchAllocs": CompareBenchAllocs(baseline, fresh, gatePrefixes, 0.30),
		"CompareBenchNs":     CompareBenchNs(baseline, fresh, gatePrefixes, 0.30),
	} {
		if len(v) != 1 || !strings.Contains(v[0], "benchtime") {
			t.Errorf("%s compared points taken at different benchtimes: %v", name, v)
		}
	}
}

func TestCompareBenchNs(t *testing.T) {
	prefixes := []string{"ReportSections/"}
	baseline := &BenchDoc{Label: "pr25", Benchmarks: []BenchJSON{
		{Name: "ReportSections/cold", NsPerOp: 350e6},
		{Name: "ReportSections/warm", NsPerOp: 140e6},
		{Name: "Ingest", NsPerOp: 30e6},
	}}
	fresh := &BenchDoc{Label: "ci", Benchmarks: []BenchJSON{
		{Name: "ReportSections/cold", NsPerOp: 400e6}, // +14%: noise
		{Name: "ReportSections/warm", NsPerOp: 140e6},
		{Name: "Ingest", NsPerOp: 900e6}, // not gated
	}}
	if v := CompareBenchNs(baseline, fresh, prefixes, 0.30); len(v) != 0 {
		t.Fatalf("within-tolerance rise flagged: %v", v)
	}
	fresh.Benchmarks[1].NsPerOp = 1300e6 // the report is back to seconds
	v := CompareBenchNs(baseline, fresh, prefixes, 0.30)
	if len(v) != 1 || !strings.Contains(v[0], "ReportSections/warm") || !strings.Contains(v[0], "rose") {
		t.Fatalf("violations = %v, want one naming ReportSections/warm", v)
	}
	fresh.Benchmarks = fresh.Benchmarks[:1]
	if v := CompareBenchNs(baseline, fresh, prefixes, 0.30); len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("missing gated benchmark not flagged: %v", v)
	}
}
