package main

import (
	"slices"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes/internal/cli"
)

// TestGateAppliesNsCeilings pins the -baseline gate's ns/op ceilings: a
// ReportSections/warm or DBSCAN/workers_1 row twice as slow as the
// baseline fails it, and a run taken at another benchtime is refused.
func TestGateAppliesNsCeilings(t *testing.T) {
	baseline := &cli.BenchDoc{Label: "pr32", Benchtime: "1s", Benchmarks: []cli.BenchJSON{
		{Name: "ReportSections/warm", NsPerOp: 100e6},
		{Name: "DBSCAN/workers_1", NsPerOp: 30e6},
		{Name: "PhashExtraction", NsPerOp: 20e3},
	}}
	for _, name := range []string{"ReportSections/warm", "DBSCAN/workers_1"} {
		fresh := &cli.BenchDoc{Label: "ci", Benchtime: "1s", Benchmarks: slices.Clone(baseline.Benchmarks)}
		if v := gate(baseline, fresh, 0.30); len(v) != 0 {
			t.Fatalf("identical run flagged: %v", v)
		}
		for i := range fresh.Benchmarks {
			if fresh.Benchmarks[i].Name == name {
				fresh.Benchmarks[i].NsPerOp *= 2
			}
		}
		if v := gate(baseline, fresh, 0.30); len(v) != 1 || !strings.Contains(v[0], name) {
			t.Fatalf("%s at 2x the baseline: violations = %v, want one naming it", name, v)
		}
	}
	fresh := &cli.BenchDoc{Label: "ci", Benchtime: "3x", Benchmarks: baseline.Benchmarks}
	if v := gate(baseline, fresh, 0.30); len(v) == 0 || !strings.Contains(v[0], "benchtime") {
		t.Fatalf("a run at another benchtime was compared: %v", v)
	}
}

// TestValidateLabel pins the fix for the unvalidated -label interpolation:
// a label lands verbatim in the BENCH_<label>.json output path, so anything
// that could traverse directories must be rejected.
func TestValidateLabel(t *testing.T) {
	for _, label := range []string{"ci", "pr4", "local", "run-2026.07", "a_b"} {
		if err := validateLabel(label); err != nil {
			t.Errorf("validateLabel(%q) = %v, want nil", label, err)
		}
	}
	for _, label := range []string{
		"",
		"../escape",
		"..",
		"a/b",
		`a\b`,
		"/etc/passwd",
		"nested/../../up",
		"sp ace",
		"tab\tlabel",
		"new\nline",
	} {
		if err := validateLabel(label); err == nil {
			t.Errorf("validateLabel(%q) accepted, want error", label)
		}
	}
}
