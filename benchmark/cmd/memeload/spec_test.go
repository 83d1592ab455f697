//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the lists in spec.go")

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerEntry   `json:"per_layer"`
}

type layerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSONMatchesSpec keeps the driver's contract file and the
// program's own lists from drifting apart: the file is rendered from
// spec.go (go test ./benchmark/cmd/memeload -update) and compared byte for
// byte.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark/cmd/memeload"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
	}
	for _, l := range layers {
		m.PerLayer = append(m.PerLayer, layerEntry{l.Name, l.Unit, l.Better})
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from spec.go; run go test ./benchmark/cmd/memeload -update")
	}
}

// TestSpecHoldsTheContract checks the limits the driver refuses a manifest
// for, so a bad edit fails here and not after an hour of runs.
func TestSpecHoldsTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(endToEnd))
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		direction(m.Name, m.Better)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, other := range endToEnd {
				if other.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(layers) < 1 || len(layers) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(layers))
	}
	for _, l := range layers {
		use(l.Name)
		direction(l.Name, l.Better)
		if !unit.MatchString(l.Unit) {
			t.Errorf("%s: unit %q", l.Name, l.Unit)
		}
		if l.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", l.Name)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", runSeconds)
	}
}

// TestSameSeedSameRequests: the seed, and nothing else, decides the bytes
// the generator sends and the order it sends them in.
func TestSameSeedSameRequests(t *testing.T) {
	c, err := makeCorpus(corpusSmall)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		matches, err := newMatchPool(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		bodies, err := newAssociatePool(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		var sent bytes.Buffer
		for _, s := range pooledStreams("match", 2, pacedMatchRate, matches.wire, matches.check, rng) {
			for i := 0; i < 3000; i++ {
				wire, _, _ := s.Next(i)
				sent.Write(wire)
			}
		}
		for _, s := range pooledStreams("associate", 2, 0, bodies.wire, bodies.check, rng) {
			for i := 0; i < 40; i++ {
				wire, _, _ := s.Next(i)
				sent.Write(wire)
			}
		}
		return sent.Bytes()
	}
	first, again, other := stream(7), stream(7), stream(8)
	if !bytes.Equal(first, again) {
		t.Error("two request streams drawn from seed 7 differ")
	}
	if bytes.Equal(first, other) {
		t.Error("seeds 7 and 8 draw the same request stream")
	}
	if hit := func() float64 {
		p, _ := newMatchPool(c, rand.New(rand.NewSource(7)))
		return p.hitShare()
	}(); hit < 0.25 || hit > 0.5 {
		t.Errorf("%.0f%% of the lookups hit, want roughly the corpus's 36%%", hit*100)
	}
}
