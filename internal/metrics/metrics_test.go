package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestEncoderFamilies pins the exposition format line by line: HELP/TYPE
// headers, bare and labelled samples, and shortest-round-trip values.
func TestEncoderFamilies(t *testing.T) {
	var sb strings.Builder
	e := NewEncoder(&sb)
	e.Counter("requests_total", "Requests received.")
	e.Sample("requests_total", []Label{{Name: "endpoint", Value: "match"}}, 42)
	e.Sample("requests_total", []Label{{Name: "endpoint", Value: "associate"}, {Name: "code", Value: "200"}}, 7)
	e.Gauge("inflight", "Requests in flight.")
	e.Sample("inflight", nil, 3)
	e.Gauge("ratio", "A fractional value.")
	e.Sample("ratio", nil, 0.25)
	if err := e.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	want := strings.Join([]string{
		"# HELP requests_total Requests received.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="match"} 42`,
		`requests_total{endpoint="associate",code="200"} 7`,
		"# HELP inflight Requests in flight.",
		"# TYPE inflight gauge",
		"inflight 3",
		"# HELP ratio A fractional value.",
		"# TYPE ratio gauge",
		"ratio 0.25",
		"",
	}, "\n")
	if sb.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestEncoderEscaping covers the format's escape rules: backslash and
// newline in HELP text; backslash, double quote, and newline in label
// values.
func TestEncoderEscaping(t *testing.T) {
	var sb strings.Builder
	e := NewEncoder(&sb)
	e.Counter("x", "line one\nback\\slash")
	e.Sample("x", []Label{{Name: "path", Value: `C:\dir "quoted"` + "\nnext"}}, 1)
	if err := e.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	want := "# HELP x line one\\nback\\\\slash\n" +
		"# TYPE x counter\n" +
		`x{path="C:\\dir \"quoted\"\nnext"} 1` + "\n"
	if sb.String() != want {
		t.Errorf("escaping mismatch:\ngot:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestEncoderSpecialValues pins the spelled forms of the IEEE specials.
func TestEncoderSpecialValues(t *testing.T) {
	var sb strings.Builder
	e := NewEncoder(&sb)
	e.Sample("a", nil, math.Inf(1))
	e.Sample("b", nil, math.Inf(-1))
	e.Sample("c", nil, math.NaN())
	if err := e.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if got, want := sb.String(), "a +Inf\nb -Inf\nc NaN\n"; got != want {
		t.Errorf("special values: got %q, want %q", got, want)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

// TestEncoderStickyError verifies the first write error is kept and later
// emissions are no-ops.
func TestEncoderStickyError(t *testing.T) {
	e := NewEncoder(errWriter{})
	e.Sample("x", nil, 1)
	if e.Err() == nil {
		t.Fatal("expected an error after a failed write")
	}
	first := e.Err()
	e.Counter("y", "more")
	e.Sample("y", nil, 2)
	if e.Err() != first {
		t.Error("sticky error was replaced")
	}
}

// TestHistogramBuckets verifies bucket assignment (le is an inclusive upper
// bound), cumulative rendering, and the sum/count samples.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0.1, 0.5, 1)
	for _, v := range []float64{0.05, 0.1, 0.3, 0.9, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	var sb strings.Builder
	e := NewEncoder(&sb)
	h.Write(e, "lat", []Label{{Name: "endpoint", Value: "match"}})
	if err := e.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	want := strings.Join([]string{
		`lat_bucket{endpoint="match",le="0.1"} 2`, // 0.05 and the boundary value 0.1
		`lat_bucket{endpoint="match",le="0.5"} 3`,
		`lat_bucket{endpoint="match",le="1"} 4`,
		`lat_bucket{endpoint="match",le="+Inf"} 5`,
		`lat_sum{endpoint="match"} 3.35`,
		`lat_count{endpoint="match"} 5`,
		"",
	}, "\n")
	if sb.String() != want {
		t.Errorf("histogram rendering:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestHistogramDefaultBuckets verifies the zero-argument constructor uses
// the default ladder.
func TestHistogramDefaultBuckets(t *testing.T) {
	h := NewHistogram()
	if got, want := len(h.bounds), len(DefBuckets()); got != want {
		t.Fatalf("default bounds: got %d, want %d", got, want)
	}
	h.Observe(0.000005) // 5µs: under the smallest bound
	h.Observe(0.00004)  // a 40µs lookup: resolved below the old 500µs floor
	var sb strings.Builder
	e := NewEncoder(&sb)
	h.Write(e, "lat", nil)
	for _, want := range []string{
		`lat_bucket{le="1e-05"} 1`,
		`lat_bucket{le="2.5e-05"} 1`,
		`lat_bucket{le="5e-05"} 2`,
		`lat_bucket{le="0.0005"} 2`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("default ladder rendering lacks %s:\n%s", want, sb.String())
		}
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines and checks
// no observation is lost: count, +Inf cumulative total, and the exact sum
// (every value is 1.0, so float accumulation is exact).
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(0.5)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*each {
		t.Errorf("Count = %d, want %d", h.Count(), workers*each)
	}
	var sb strings.Builder
	e := NewEncoder(&sb)
	h.Write(e, "x", nil)
	if !strings.Contains(sb.String(), "x_sum 8000") {
		t.Errorf("sum lost observations:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `x_bucket{le="+Inf"} 8000`) {
		t.Errorf("+Inf cumulative total wrong:\n%s", sb.String())
	}
}
