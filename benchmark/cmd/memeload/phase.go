//go:build linux

package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/memes-pipeline/memes/benchmark/loadgen"
)

// slices is the number of equal slices every timed window is cut into. Each
// reported number is the median of its per-slice values: this machine is
// disturbed for a few seconds at a time, and a median over eight slices
// stands still through a disturbance of up to three of them.
const slices = 8

// phase is one timed window against the server.
type phase struct {
	results  []loadgen.StreamResult
	from, to int64               // the window, in nanoseconds on the run's clock
	server   [slices + 1]float64 // child CPU (ms) at each slice boundary
	client   [slices + 1]float64 // generator CPU (ms) at each slice boundary
	stolen   [slices + 1]float64 // machine-wide stolen CPU (ms) at each slice boundary
	rss      [slices + 1]float64 // child resident set (MB) at each slice boundary
	spans    bool                // odd slices recorded a span per request
}

// measure drives the streams for warm+window and reads the CPU counters of
// the server and of the generator at every slice boundary of the window.
func (e *serveEnv) measure(endpoint map[string]string, streams []loadgen.Stream, warm, window time.Duration) (*phase, error) {
	p := &phase{from: int64(warm), to: int64(warm + window), spans: e.rc.spans != nil}
	if e.rc.spans != nil {
		for i := range streams {
			streams[i].Span = e.rc.spans.stream(streams[i].Name)
		}
	}
	sampled := make(chan error, 1)
	sample := func(start time.Time) {
		//memes:goroutine reads CPU counters on the run's clock; joined by the receive on sampled below
		go func() {
			var err error
			for k := 0; k <= slices && err == nil; k++ {
				time.Sleep(time.Until(start.Add(warm + window*time.Duration(k)/slices)))
				if e.rc.spans != nil {
					e.rc.spans.on.Store(k%2 == 1)
				}
				p.server[k], err = e.srv.cpuMS()
				p.client[k] = selfCPUMS()
				p.stolen[k] = stolenMS()
				if err == nil {
					p.rss[k], err = rssMB(e.srv.cmd.Process.Pid)
				}
			}
			sampled <- err
		}()
	}
	results, err := loadgen.Run(e.srv.addr, streams, warm, window, sample)
	if err != nil {
		return nil, err
	}
	if err := <-sampled; err != nil {
		return nil, err
	}
	p.results = results
	for i := range results {
		e.sentTo[endpoint[results[i].Name]] += results[i].Sent
		e.refused += results[i].SentRefused
	}
	return p, nil
}

// stolenMS is the CPU time the hypervisor has withheld from this machine's
// virtual CPUs so far (the steal column of /proc/stat), in milliseconds;
// zero where the kernel does not report it.
func stolenMS() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 1000 / clockTick
}

// selfCPUMS is this process's user+system CPU time so far, in milliseconds.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// correct is the number of window requests answered correctly.
func (p *phase) correct() int {
	n := 0
	for i := range p.results {
		n += len(p.results[i].Latency)
	}
	return n
}

// tally adds the phase's attempts and failures to the run's totals.
func (p *phase) tally(r *result) {
	for i := range p.results {
		s := &p.results[i]
		r.attempted += s.Attempted
		r.failed += s.Failed()
		if s.Failed() > 0 {
			r.problemf("%s: %d refused, %d transport errors, %d wrong answers of %d",
				s.Name, s.Refused, s.Transport, s.Wrong, s.Attempted)
		}
	}
}

// streams returns the results of the named streams, or all of them.
func (p *phase) streams(names []string) []loadgen.StreamResult {
	if len(names) == 0 {
		return p.results
	}
	var out []loadgen.StreamResult
	for i := range p.results {
		for _, n := range names {
			if n == p.results[i].Name {
				out = append(out, p.results[i])
			}
		}
	}
	return out
}

// stolenLimit is the share of a slice's wall time the hypervisor may have
// withheld from the machine's virtual CPUs before the slice stops counting
// as a measurement of this program.
const stolenLimit = 0.05

// clean reports which slices to take statistics over: those in which less
// than stolenLimit of the time was stolen, or, when fewer than three are
// that clean, the three least stolen from. The filter reads an OS counter,
// never the results.
func (p *phase) clean() [slices]bool {
	width := float64(p.to-p.from) / slices / 1e6
	var stolen [slices]float64
	order := make([]int, slices)
	for k := range order {
		order[k] = k
		stolen[k] = (p.stolen[k+1] - p.stolen[k]) / width
	}
	sort.SliceStable(order, func(a, b int) bool { return stolen[order[a]] < stolen[order[b]] })
	var keep [slices]bool
	for rank, k := range order {
		keep[k] = rank < 3 || stolen[k] < stolenLimit
	}
	return keep
}

// stolenShare is the share of the window's wall time that was stolen.
func (p *phase) stolenShare() float64 {
	return (p.stolen[slices] - p.stolen[0]) / (float64(p.to-p.from) / 1e6)
}

// perSlice evaluates stat on each clean slice's ascending latency samples
// and the slice's index, and returns the median.
func (p *phase) perSlice(names []string, stat func(k int, sorted []int64) float64) float64 {
	return p.overSlices(names, stat, func(int) bool { return true })
}

// overSlices is perSlice restricted to the slices use admits.
func (p *phase) overSlices(names []string, stat func(k int, sorted []int64) float64, use func(k int) bool) float64 {
	keep := p.clean()
	var values []float64
	for k, samples := range loadgen.Slices(p.streams(names), p.from, p.to, slices) {
		if keep[k] && use(k) && len(samples) > 0 {
			values = append(values, stat(k, samples))
		}
	}
	return loadgen.Median(values)
}

// traceOverhead compares the slices that recorded spans (the odd ones) with
// the slices beside them that did not: the share by which the median request
// of the named streams got slower.
func (p *phase) traceOverhead(names []string) float64 {
	p50 := func(_ int, s []int64) float64 { return float64(loadgen.Percentile(s, 0.5)) }
	traced := p.overSlices(names, p50, func(k int) bool { return k%2 == 1 })
	plain := p.overSlices(names, p50, func(k int) bool { return k%2 == 0 })
	return traced/plain - 1
}

// rps is the median slice's rate of correct answers per second.
func (p *phase) rps() float64 {
	width := float64(p.to-p.from) / slices / 1e9
	return p.perSlice(nil, func(_ int, s []int64) float64 { return float64(len(s)) / width })
}

// serverMSPerReq is the median slice's server CPU per correct answer.
func (p *phase) serverMSPerReq() float64 {
	return p.perSlice(nil, func(k int, s []int64) float64 { return (p.server[k+1] - p.server[k]) / float64(len(s)) })
}

// clientShare is the generator's share of the CPU the window consumed.
func (p *phase) clientShare() float64 {
	client, server := p.client[slices]-p.client[0], p.server[slices]-p.server[0]
	return client / (client + server)
}

// quantileMS is the median slice's q-quantile latency of the named streams
// (all when none is named), in milliseconds.
func (p *phase) quantileMS(q float64, names ...string) float64 {
	return p.perSlice(names, func(_ int, s []int64) float64 { return ms(loadgen.Percentile(s, q)) })
}

// lagUS is the q-quantile over the whole window of how late open-loop
// requests left the generator, in microseconds.
func (p *phase) lagUS(q float64) float64 {
	var lags []int64
	for i := range p.results {
		lags = append(lags, p.results[i].Lag...)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return float64(loadgen.Percentile(lags, q)) / 1e3
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// spanSink collects the spans a traced load records: one buffer per stream,
// each appended to only by the goroutine driving that stream, so recording
// takes no lock. Recording is switched on for every other slice of the
// window, so the slices beside them measure the same load without it.
type spanSink struct {
	on      atomic.Bool
	buffers []*[]span
}

// stream returns the recorder of one more stream.
func (s *spanSink) stream(name string) func(i int, start, end int64) {
	buf := new([]span)
	s.buffers = append(s.buffers, buf)
	label := name + ".socket"
	return func(i int, start, end int64) {
		if s.on.Load() {
			*buf = append(*buf, span{Req: i, Name: label, Start: start, End: end})
		}
	}
}

// durations returns every recorded span's length in nanoseconds, ascending.
func (s *spanSink) durations() []int64 {
	var out []int64
	for _, buf := range s.buffers {
		for _, sp := range *buf {
			out = append(out, sp.End-sp.Start)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// count is the number of spans recorded so far.
func (s *spanSink) count() int {
	n := 0
	for _, buf := range s.buffers {
		n += len(*buf)
	}
	return n
}
