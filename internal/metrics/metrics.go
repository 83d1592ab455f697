// Package metrics is a minimal, dependency-free Prometheus exposition
// library: an encoder for the text format (version 0.0.4, the format every
// Prometheus server scrapes) and a lock-free fixed-bucket histogram for
// latency observations. It exists because the repository's contract is
// zero third-party dependencies — the serving layer needs counters, gauges,
// and histograms on /v1/metrics, not a client-library feature matrix.
//
// The encoder is push-style: the caller walks its own counters (the server
// keeps them as atomics already) and emits families in a fixed order, so a
// scrape allocates one buffer and never takes a lock. Histogram is the only
// stateful type here; everything else renders values the caller owns.
package metrics

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Encoder writes Prometheus text-format families to an io.Writer. Errors
// are sticky: the first write error is kept and every later call is a
// no-op, so call sites chain emissions and check Err once at the end.
type Encoder struct {
	w   io.Writer
	buf []byte
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
func (e *Encoder) Err() error { return e.err }

// Counter begins a counter family: # HELP and # TYPE lines. Samples follow
// via Sample.
func (e *Encoder) Counter(name, help string) { e.header(name, help, "counter") }

// Gauge begins a gauge family.
func (e *Encoder) Gauge(name, help string) { e.header(name, help, "gauge") }

// HistogramType begins a histogram family; emit the samples with
// Histogram.Write.
func (e *Encoder) HistogramType(name, help string) { e.header(name, help, "histogram") }

func (e *Encoder) header(name, help, typ string) {
	b := e.buf[:0]
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, help)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	b = append(b, '\n')
	e.write(b)
}

// Sample emits one sample line: name{labels} value. A nil or empty label
// set renders the bare name.
func (e *Encoder) Sample(name string, labels []Label, v float64) {
	b := e.buf[:0]
	b = append(b, name...)
	b = appendLabels(b, labels)
	b = append(b, ' ')
	b = appendValue(b, v)
	b = append(b, '\n')
	e.write(b)
}

func (e *Encoder) write(b []byte) {
	e.buf = b[:0]
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Name...)
		b = append(b, '=', '"')
		b = appendEscapedValue(b, l.Value)
		b = append(b, '"')
	}
	return append(b, '}')
}

// appendEscapedHelp escapes a HELP text: backslash and newline.
func appendEscapedHelp(b []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\n") {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendEscapedValue escapes a label value: backslash, double-quote, and
// newline, per the exposition format.
func appendEscapedValue(b []byte, s string) []byte {
	if !strings.ContainsAny(s, "\\\"\n") {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

// appendValue renders a sample value the way Prometheus expects: shortest
// round-trip decimal, with the special values spelled +Inf/-Inf/NaN.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// DefBuckets is the default latency bucket ladder (seconds): the
// conventional Prometheus client defaults extended down to 10µs, because
// the serve path answers a lookup in tens of microseconds and a small
// association in a few hundred — a ladder starting at 500µs puts all of
// them in its first bucket and no percentile can be read from it.
func DefBuckets() []float64 {
	return []float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe and
// Write. Observations are lock-free: one atomic add on the owning bucket,
// one on the count, and a CAS loop folding the value into the sum, so the
// request path pays nanoseconds per observation and a scrape never blocks
// a writer. Buckets are cumulative only at render time.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper bounds;
// an implicit +Inf bucket is always appended. With no bounds, DefBuckets
// is used.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Find the first bound >= v; the tail slot is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Write emits the histogram's sample lines (name_bucket per bound plus
// +Inf, name_sum, name_count) with the given base labels; the encoder's
// family header must already be written. The le label is appended after
// the base labels, per convention.
func (h *Histogram) Write(e *Encoder, name string, labels []Label) {
	cum := uint64(0)
	lbls := make([]Label, len(labels)+1)
	copy(lbls, labels)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		lbls[len(labels)] = Label{Name: "le", Value: formatBound(bound)}
		e.Sample(name+"_bucket", lbls, float64(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	lbls[len(labels)] = Label{Name: "le", Value: "+Inf"}
	e.Sample(name+"_bucket", lbls, float64(cum))
	e.Sample(name+"_sum", labels, math.Float64frombits(h.sum.Load()))
	e.Sample(name+"_count", labels, float64(cum))
}

func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
