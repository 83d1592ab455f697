package main

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/memes-pipeline/memes/internal/cli"
)

// BenchmarkRows runs memebench's table as sub-benchmarks, so go test's
// -bench filters, -count and -cpuprofile reach the bodies the -baseline
// gate times. ReportSections/cold stays memebench's one-sample row.
func BenchmarkRows(b *testing.B) {
	st, err := newBenchState()
	if err != nil {
		b.Fatal(err)
	}
	// memebench renders the process's first report before the table, so
	// ReportSections/warm times the reports after it here too.
	if err := st.renderReport(); err != nil {
		b.Fatal(err)
	}
	for _, r := range st.rows(runtime.GOMAXPROCS(0)) {
		b.Run(r.name, r.fn)
	}
}

// TestRowsMatchBaseline builds the table without running a row: its names
// are unique, at -workers 2 they are the CI baseline's plus
// EngineSnapshotSave, and every gated prefix names at least one row, so a
// renamed row fails here rather than in CI's gate.
func TestRowsMatchBaseline(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_pr50.json")
	if err != nil {
		t.Fatal(err)
	}
	var base cli.BenchDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	want := []string{"EngineSnapshotSave"}
	for _, b := range base.Benchmarks {
		want = append(want, b.Name)
	}
	got := []string{coldRow}
	for _, r := range (&benchState{}).rows(2) {
		if slices.Contains(got, r.name) {
			t.Errorf("row %s appears twice", r.name)
		}
		got = append(got, r.name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("rows at -workers 2 = %v, want %v", got, want)
	}
	for _, prefixes := range [][]string{gatedPrefixes, allocGatedPrefixes, nsGatedPrefixes} {
		for _, p := range prefixes {
			if !slices.ContainsFunc(got, func(name string) bool { return strings.HasPrefix(name, p) }) {
				t.Errorf("gated prefix %q matches no row", p)
			}
		}
	}
}

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
