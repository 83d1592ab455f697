//go:build linux

// Command memeload is the repository's benchmark: it generates its corpora,
// builds and boots the real cmd/memeserve as a child process, drives it over
// loopback, checks every answer against an engine built in process, and
// prints every metric by name with unit, sample count and bound.
//
// Usage:
//
//	go run ./benchmark/cmd/memeload [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
//	                                [-repeat K] [-quick]
//
// With -workload it runs that one workload — the untraced pass, or with
// -trace 1 the traced pass — and ends its output with one JSON line: the
// form BENCHMARK.json's command is run in. Without -workload it runs all
// five, both passes. -repeat K runs the untraced set K times and prints each
// metric's median, quartiles and spread against its bound; -quick shortens
// every window to two seconds and judges nothing, for a smoke step.
//
// See benchmark/README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run one workload and end with the result JSON line (default: all five, both passes)")
	seed := flag.Int64("seed", 1, "seed of the request streams; the corpora are fixed")
	seconds := flag.Float64("seconds", runSeconds, "timed window of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the untraced one")
	repeat := flag.Int("repeat", 0, "run the untraced set this many times and print medians, quartiles and spread against each bound")
	quick := flag.Bool("quick", false, "two-second windows and no judgement: a smoke run")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *repeat, *quick); err != nil {
		killChildren()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, repeat int, quick bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if quick {
		seconds = 2
	}
	if seconds <= 0 {
		return fmt.Errorf("memeload: -seconds must be positive, got %v", seconds)
	}
	rc := &runConfig{
		root:   root,
		out:    filepath.Join(root, "benchmark", "out"),
		nproc:  runtime.NumCPU(),
		seed:   seed,
		window: time.Duration(seconds * float64(time.Second)),
		warm:   time.Second,
	}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		return err
	}
	if rc.dir, err = os.MkdirTemp(rc.out, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(rc.dir)
	fmt.Printf("memeload seed=%d commit=%s nproc=%d GOMAXPROCS=%d %s window=%v\n",
		seed, commit(root), rc.nproc, runtime.GOMAXPROCS(0), runtime.Version(), rc.window)

	names := []string{workload}
	if workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	switch {
	case repeat > 0:
		return runRepeated(rc, names, repeat, quick)
	case workload != "":
		return runOne(rc, workload, trace == 1)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if err := runOne(rc, name, traced); err != nil {
				return err
			}
		}
	}
	return nil
}

// commit names the checked-out commit, or "unknown" outside a git checkout
// (the driver's checkout is not one).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// wireMetric is one metric in the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the JSON object that ends a single-workload run.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// runOne runs one pass of one workload, prints its table and its result
// line, and fails when an invariant did not hold.
func runOne(rc *runConfig, name string, traced bool) error {
	var res *result
	var err error
	units := map[string]string{}
	if traced {
		res, err = runTraced(rc, name)
		for _, l := range layers {
			units[l.Name] = l.Unit
		}
	} else {
		res, err = runWorkload(rc, name)
		for _, m := range endToEnd {
			units[m.Name] = m.Unit
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	printTable(name, traced, res)
	line := wireResult{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]wireMetric{},
	}
	for metric, unit := range units {
		value, ok := res.metrics[metric]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, metric)
		}
		line.Metrics[metric] = wireMetric{value, unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed, %d checks failed", name, res.failed, res.attempted, len(res.problems))
	}
	return nil
}

// printTable prints one pass: the gated metrics with sample counts and
// bounds, then the informational rows, then whatever check failed.
func printTable(name string, traced bool, res *result) {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	fmt.Printf("\n== %s (%s): %d attempted, %d failed ==\n", name, pass, res.attempted, res.failed)
	if traced {
		for _, l := range layers {
			fmt.Printf("  %-38s %14.4f %-6s -> %s\n", l.Name, res.metrics[l.Name], l.Unit, l.Moves)
		}
	} else {
		for _, m := range endToEnd {
			fmt.Printf("  %-38s %14.4f %-6s n=%-8d bound %2.0f%% (%s is better)\n",
				m.Name, res.metrics[m.Name], m.Unit, res.samples[m.Name], m.Bound*100, m.Better)
		}
	}
	for _, row := range res.info {
		fmt.Printf("  %-38s %14.4f %-6s (not gated)\n", row.name, row.value, row.unit)
	}
	for _, p := range res.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// runRepeated runs the untraced set k times and prints, per workload and
// metric, the median, the quartiles and the interquartile range as a share
// of the median, judged against the metric's bound.
func runRepeated(rc *runConfig, names []string, k int, quick bool) error {
	values := map[string]map[string][]float64{}
	for i := 0; i < k; i++ {
		for _, name := range names {
			res, err := runWorkload(rc, name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printTable(name, false, res)
			if len(res.problems) > 0 || res.failed > 0 {
				return fmt.Errorf("%s: %d operations failed, %d checks failed", name, res.failed, len(res.problems))
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, v := range res.metrics {
				values[name][metric] = append(values[name][metric], v)
			}
		}
	}
	fmt.Printf("\n== %d repetitions ==\n", k)
	for _, name := range names {
		for _, m := range endToEnd {
			q1, median, q3 := quartiles(values[name][m.Name])
			spread := (q3 - q1) / median
			verdict := ""
			switch {
			case quick || k < 4:
			case spread <= m.Bound/3:
				verdict = "steady"
			case spread <= m.Bound:
				verdict = "within bound"
			default:
				verdict = "SPREAD EXCEEDS BOUND"
			}
			fmt.Printf("  %-16s %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%%  bound %2.0f%%  %s\n",
				name, m.Name, median, q1, q3, spread*100, m.Bound*100, verdict)
		}
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// which is how the driver computes a metric's spread.
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p*float64(len(s)+1) - 1
		lo := int(pos)
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
