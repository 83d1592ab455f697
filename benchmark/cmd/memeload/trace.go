//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced pass. Spans of one request share
// Req; Parent is the ID of the enclosing layer's span, zero for the
// outermost.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans of a traced run in memory until it ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer returns a tracer whose spans count time from t0.
func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records one span and returns its ID.
func (t *tracer) add(parent, req int, name string, start time.Time, d time.Duration) int {
	id := len(t.spans) + 1
	at := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: at, End: at + int64(d)})
	return id
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// onion is one request kind timed layer by layer, outermost first. All
// timing is around calls into public functions from the benchmark's own
// files, so the layers of one request are timed in separate executions of
// that request — over the socket, through Handler().ServeHTTP, through the
// engine, through the index — and nest by request id, not by wall clock.
// Spans recorded inside the program are a later change (ROADMAP item 4).
type onion struct {
	kind   string
	layers []string
	dur    [][]time.Duration // dur[layer][request]
	starts [][]time.Time
}

func newOnion(kind string, layers ...string) *onion {
	return &onion{kind: kind, layers: layers, dur: make([][]time.Duration, len(layers)), starts: make([][]time.Time, len(layers))}
}

// add records one more request's execution of the given layer.
func (o *onion) add(layer int, start time.Time, d time.Duration) {
	o.dur[layer] = append(o.dur[layer], d)
	o.starts[layer] = append(o.starts[layer], start)
}

// time runs f as one more request's execution of the given layer.
func (o *onion) time(layer int, f func()) {
	start := time.Now()
	f()
	o.add(layer, start, time.Since(start))
}

// requests is the number of requests every layer has been timed for.
func (o *onion) requests() int {
	n := len(o.dur[0])
	for _, d := range o.dur {
		if len(d) < n {
			n = len(d)
		}
	}
	return n
}

// median is the median duration of one layer's span, in nanoseconds.
func (o *onion) median(layer int) float64 {
	d := append([]time.Duration(nil), o.dur[layer][:o.requests()]...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/2])
}

// self is the median over requests of a layer's self time: its span minus
// the span of the layer inside it.
func (o *onion) self(layer int) float64 {
	n := o.requests()
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = o.dur[layer][i]
		if layer+1 < len(o.layers) {
			d[i] -= o.dur[layer+1][i]
		}
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[n/2])
}

// record copies the onion into the tracer, one span per layer per request.
func (o *onion) record(t *tracer, firstReq int) {
	for i := 0; i < o.requests(); i++ {
		parent := 0
		for l, name := range o.layers {
			parent = t.add(parent, firstReq+i, o.kind+"."+name, o.starts[l][i], o.dur[l][i])
		}
	}
}

// budget prints the onion as a latency budget: each layer's self time, the
// outermost span's median, and the share of that median the self times
// leave unexplained.
func (o *onion) budget(r *result) {
	sum := 0.0
	for l, name := range o.layers {
		self := o.self(l)
		sum += self
		r.note("budget."+o.kind+"."+name+"_self_us", self/1e3, "us")
	}
	total := o.median(0)
	r.note("budget."+o.kind+".client_p50_us", total/1e3, "us")
	gap := (total - sum) / total
	r.note("budget."+o.kind+".unexplained_share", gap, "share")
}

// window runs the workload's load once more, for half the window and with a
// span recorded per request in every other slice. The run's server counters
// are the "window" per-layer metrics; the slices with spans against the
// slices without give trace.overhead_share.
func (t *traced) window(workload string) error {
	windowed := []string{"server.batch_size_mean", "server.shed", "declog.dropped_share", "ingest.reclusters",
		"ingest.compactions", "ingest.rejected_share", "loadgen.cpu_share", "loadgen.lat_p90_ms",
		"loadgen.lat_p99_ms", "trace.overhead_share"}
	for _, m := range windowed {
		t.set(m, 0)
	}
	load := *t.rc
	load.window, load.setups, load.spans = t.rc.window/2, 1, &spanSink{}
	r, err := runWorkload(&load, workload)
	if err != nil {
		return err
	}
	t.r.attempted += r.attempted
	t.r.failed += r.failed
	t.r.problems = append(t.r.problems, r.problems...)
	for _, row := range r.info {
		for _, m := range windowed {
			if row.name == m {
				t.set(m, row.value)
			}
		}
	}
	t.r.note("trace.window_spans", float64(load.spans.count()), "count")
	return nil
}

// onionOf names the onions a workload's trace file holds.
var onionOf = map[string][]string{
	wlMatchSmall:     {"match"},
	wlAssociateSmall: {"associate_small"},
	wlAssociateLarge: {"associate_large"},
	wlIngestMixed:    {"ingest", "match"},
	wlBuildReport:    {},
}

// writeTrace prints the workload's latency budget and writes its spans.
func (t *traced) writeTrace(workload string) error {
	tr := newTracer(t.began)
	for i, kind := range onionOf[workload] {
		o := t.onions[kind]
		o.budget(t.r)
		o.record(tr, i*onionRequests)
	}
	if workload == wlBuildReport {
		t.offlineSpans(tr)
	}
	path := filepath.Join(t.rc.out, "trace-"+workload+".json")
	t.r.note("trace.spans", float64(len(tr.spans)), "count")
	fmt.Printf("trace written to %s\n", path)
	return tr.write(path)
}

// offlineSpans lays build_report's layer timings out as one request: the
// build over its stages, the report over its sections.
func (t *traced) offlineSpans(tr *tracer) {
	at := t.began
	dur := func(metric string) time.Duration { return time.Duration(t.r.metrics[metric] * 1e6) }
	build := tr.add(0, 0, "build", at, dur("pipeline.build_wn_ms"))
	for _, stage := range []string{"neighbours", "cluster", "annotate"} {
		tr.add(build, 0, "build."+stage, at, dur("pipeline.stage_"+stage+"_ms"))
	}
	parts := []string{"influence", "influence_groups", "table8", "figure19", "sections_other"}
	total := time.Duration(0)
	for _, p := range parts {
		total += dur("analysis." + p + "_ms")
	}
	report := tr.add(0, 0, "report", at, dur("pipeline.result_ms")+total)
	tr.add(report, 0, "report.result", at, dur("pipeline.result_ms"))
	for _, p := range parts {
		tr.add(report, 0, "report."+p, at, dur("analysis."+p+"_ms"))
	}
}
