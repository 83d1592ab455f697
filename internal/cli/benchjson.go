package cli

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// BenchJSON is one benchmark result in the perf-trajectory document emitted
// by cmd/memebench, following the same machine-readable conventions as
// StatsJSON (stable snake_case keys, arrays never null).
type BenchJSON struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Metrics carries the benchmark's custom b.ReportMetric values
	// (e.g. images_per_sec, neighbour_points_per_sec).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchDoc is the BENCH_<label>.json document: one point of the repo's
// performance trajectory, labelled by run (e.g. "ci") and annotated with
// the platform the numbers came from and how they were taken: the
// -benchtime setting and the worker-pool size of the parallel variants.
type BenchDoc struct {
	Label      string      `json:"label"`
	GoOS       string      `json:"goos"`
	GoArch     string      `json:"goarch"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Benchtime  string      `json:"benchtime"`
	Workers    int         `json:"workers"`
	Benchmarks []BenchJSON `json:"benchmarks"`
}

// NewBenchDoc returns an empty document for the current platform, taken at
// the given benchtime and worker count. The Benchmarks slice starts non-nil
// so the contract is an array, never null.
func NewBenchDoc(label, benchtime string, workers int) BenchDoc {
	return BenchDoc{
		Label:      label,
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
		Workers:    workers,
		Benchmarks: []BenchJSON{},
	}
}

// benchtimeMismatch refuses a comparison between points taken at different
// -benchtime settings: an iteration count and a time target do not time
// the same thing (three iterations of a 200 ns operation time the timer).
// It returns the one violation line, or nil when the settings agree.
func benchtimeMismatch(baseline, fresh *BenchDoc) []string {
	if baseline.Benchtime == fresh.Benchtime {
		return nil
	}
	return []string{fmt.Sprintf("baseline %q was taken at -benchtime %q and fresh run %q at %q: points taken at different benchtimes are not compared",
		baseline.Label, baseline.Benchtime, fresh.Label, fresh.Benchtime)}
}

// Add appends one testing.Benchmark result under the given name.
func (d *BenchDoc) Add(name string, r testing.BenchmarkResult) {
	b := BenchJSON{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		b.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			b.Metrics[k] = v
		}
	}
	d.Benchmarks = append(d.Benchmarks, b)
}

// Bench returns the named benchmark entry; ok is false when absent.
func (d *BenchDoc) Bench(name string) (BenchJSON, bool) {
	for _, b := range d.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return BenchJSON{}, false
}

// CompareBench gates a fresh trajectory point against a committed baseline:
// for every baseline benchmark whose name starts with one of prefixes and
// that carries metric, the fresh document must report at least
// (1-tolerance)× the baseline's value. One human-readable line is returned
// per violation (regression past the tolerance, or a gated benchmark missing
// from the fresh run); an empty slice means the gate passes. Benchmarks
// present only in the fresh document are ignored — new machines and new
// benchmarks must not fail the gate — and so are cross-run differences the
// tolerance absorbs, so the gate catches order-of-magnitude cliffs, not
// runner noise. A baseline taken at another benchtime is refused outright.
func CompareBench(baseline, fresh *BenchDoc, prefixes []string, metric string, tolerance float64) []string {
	if v := benchtimeMismatch(baseline, fresh); v != nil {
		return v
	}
	var violations []string
	for _, base := range baseline.Benchmarks {
		if !gatedBy(base.Name, prefixes) {
			continue
		}
		want, ok := base.Metrics[metric]
		if !ok || want <= 0 {
			continue
		}
		got, ok := fresh.Bench(base.Name)
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline %q but missing from fresh run %q", base.Name, baseline.Label, fresh.Label))
			continue
		}
		have := got.Metrics[metric]
		floor := want * (1 - tolerance)
		if have < floor {
			violations = append(violations,
				fmt.Sprintf("%s: %s regressed %.0f -> %.0f (%.1f%% of baseline, floor %.0f at tolerance %.0f%%)",
					base.Name, metric, want, have, 100*have/want, floor, 100*tolerance))
		}
	}
	return violations
}

// CompareBenchAllocs gates allocation counts the opposite way round from
// CompareBench: allocs_per_op is a ceiling, not a floor. For every baseline
// benchmark whose name starts with one of prefixes, the fresh run must report
// at most floor(baseline × (1+tolerance)) allocs/op. A baseline of 0 therefore
// pins the fresh run to exactly 0 — tolerance cannot loosen a zero-alloc
// invariant, which is the point: once a path reaches the steady state it must
// never allocate again. A gated benchmark missing from the fresh run is a
// violation (silently dropping the benchmark must not pass the gate).
func CompareBenchAllocs(baseline, fresh *BenchDoc, prefixes []string, tolerance float64) []string {
	return compareCeiling(baseline, fresh, prefixes, func(base, got BenchJSON) string {
		ceiling := int64(float64(base.AllocsPerOp) * (1 + tolerance))
		if got.AllocsPerOp <= ceiling {
			return ""
		}
		return fmt.Sprintf("%s: allocs_per_op grew %d -> %d (ceiling %d at tolerance %.0f%%)",
			base.Name, base.AllocsPerOp, got.AllocsPerOp, ceiling, 100*tolerance)
	})
}

// CompareBenchNs gates wall time as a ceiling the same way: the fresh run
// must report at most baseline × (1+tolerance) ns/op for every gated
// benchmark, and must not drop one.
func CompareBenchNs(baseline, fresh *BenchDoc, prefixes []string, tolerance float64) []string {
	return compareCeiling(baseline, fresh, prefixes, func(base, got BenchJSON) string {
		ceiling := base.NsPerOp * (1 + tolerance)
		if got.NsPerOp <= ceiling {
			return ""
		}
		return fmt.Sprintf("%s: ns_per_op rose %.0f -> %.0f (%.1f%% of baseline, ceiling %.0f at tolerance %.0f%%)",
			base.Name, base.NsPerOp, got.NsPerOp, 100*got.NsPerOp/base.NsPerOp, ceiling, 100*tolerance)
	})
}

// compareCeiling walks the gated baseline benchmarks and collects one line
// per benchmark the fresh run lacks or for which exceeds returns a
// violation ("" means within the ceiling). A baseline taken at another
// benchtime is refused outright.
func compareCeiling(baseline, fresh *BenchDoc, prefixes []string, exceeds func(base, got BenchJSON) string) []string {
	if v := benchtimeMismatch(baseline, fresh); v != nil {
		return v
	}
	var violations []string
	for _, base := range baseline.Benchmarks {
		if !gatedBy(base.Name, prefixes) {
			continue
		}
		got, ok := fresh.Bench(base.Name)
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline %q but missing from fresh run %q", base.Name, baseline.Label, fresh.Label))
			continue
		}
		if v := exceeds(base, got); v != "" {
			violations = append(violations, v)
		}
	}
	return violations
}

// gatedBy reports whether name falls under any of the gate prefixes.
func gatedBy(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
