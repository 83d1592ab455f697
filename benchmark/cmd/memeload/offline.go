//go:build linux

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"image"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/benchmark/loadgen"
	"github.com/memes-pipeline/memes/internal/imaging"
)

// offlineJob is the state build_report works on: the small corpus, a set of
// rendered meme variants to hash, the reference outputs every repetition
// must reproduce, and the samples taken so far.
type offlineJob struct {
	c      *corpus
	images []image.Image
	hashes []memes.Hash // HashImage of each image, from the first pass
	snap   []byte       // snapshot of c.eng: every rebuild must save these bytes
	probe  memes.Hash   // the lookup a freshly loaded snapshot answers first
	first  memes.Match  // the engine's answer to probe
	dir    string
	spans  *spanSink // traced load only: a span per image in every other hashing pass

	hashRates   [2][]float64 // images per second of each hashing pass: untraced, traced
	hashed      int
	buildWalls  []float64 // NewEngine at GOMAXPROCS workers, ms
	buildCPU    []float64 // process CPU of each of those builds, ms
	handoffs    []float64 // save → LoadEngineFile → first Match, us
	reportWalls []float64 // Result → NewReport → Sections, ms
	reportHash  [sha256.Size]byte
	rss         []float64 // this process's resident set (MB) after every build and report
}

// offlineImages is the number of rendered variants the hashing passes cycle
// over: enough distinct pixels that no image stays in L1.
const offlineImages = 256

// setupOffline generates the small corpus, builds its engine and renders the
// image variants, reps times; it returns the median wall time.
func setupOffline(rc *runConfig, reps int) (time.Duration, *offlineJob, error) {
	var walls []time.Duration
	var job *offlineJob
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		c, err := makeCorpus(corpusSmall)
		if err != nil {
			return 0, nil, err
		}
		job = &offlineJob{c: c, dir: rc.dir, spans: rc.spans}
		for i := 0; i < offlineImages; i++ {
			base := imaging.Template(int64(i / 8))
			job.images = append(job.images, imaging.Variant(base, int64(i), 0.2))
		}
		walls = append(walls, time.Since(start))
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	var buf bytes.Buffer
	if err := job.c.eng.Save(&buf); err != nil {
		return 0, nil, err
	}
	job.snap = buf.Bytes()
	for _, img := range job.images {
		h, err := memes.HashImage(img)
		if err != nil {
			return 0, nil, err
		}
		job.hashes = append(job.hashes, h)
	}
	// A hash the engine matches, so the first lookup exercises a hit.
	for _, ci := range job.c.eng.Clusters() {
		if ci.Annotated() {
			job.probe = ci.MedoidHash
			break
		}
	}
	var err error
	job.first, _, err = job.c.eng.Match(context.Background(), job.probe)
	return walls[len(walls)/2], job, err
}

// hashImages runs Step 1 over the rendered variants for the budget, one
// timed pass over all of them at a time. Every hash must equal the first
// pass's. In a traced load every other pass records a span per image.
func (j *offlineJob) hashImages(r *result, budget time.Duration) {
	var record func(int, int64, int64)
	if j.spans != nil {
		j.spans.on.Store(true)
		record = j.spans.stream("hash_image")
	}
	for start := time.Now(); time.Since(start) < budget; {
		traced := 0
		if j.spans != nil && len(j.hashRates[0]) > len(j.hashRates[1]) {
			traced = 1
		}
		t0 := time.Now()
		for i, img := range j.images {
			var at time.Time
			if traced == 1 {
				at = time.Now()
			}
			h, err := memes.HashImage(img)
			if err != nil || h != j.hashes[i] {
				r.problemf("HashImage(variant %d) = %v, %v; the first pass gave %v", i, h, err, j.hashes[i])
			}
			if traced == 1 {
				record(i, int64(at.Sub(start)), int64(time.Since(start)))
			}
		}
		j.hashRates[traced] = append(j.hashRates[traced], float64(len(j.images))/time.Since(t0).Seconds())
		j.hashed += len(j.images)
	}
}

// builds rebuilds the engine for the budget. Each repetition times
// NewEngine at GOMAXPROCS workers, then (untimed) checks the researcher's
// hand-off: the snapshot bytes equal the reference, and the file loads and
// answers its first lookup like the in-process engine.
func (j *offlineJob) builds(r *result, budget time.Duration) error {
	ctx := context.Background()
	for start := time.Now(); time.Since(start) < budget; {
		cpu0, t0 := selfCPUMS(), time.Now()
		eng, err := memes.NewEngine(ctx, j.c.ds, j.c.site)
		if err != nil {
			return err
		}
		j.buildWalls = append(j.buildWalls, float64(time.Since(t0))/1e6)
		j.buildCPU = append(j.buildCPU, selfCPUMS()-cpu0)

		t0 = time.Now()
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), j.snap) {
			r.problemf("rebuild %d: snapshot bytes differ from the first build's", len(j.buildWalls))
		}
		path := filepath.Join(j.dir, "rebuilt.snap")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		loaded, err := memes.LoadEngineFile(path, j.c.site)
		if err != nil {
			return err
		}
		got, ok, err := loaded.Match(ctx, j.probe)
		if err != nil || !ok || got != j.first {
			r.problemf("rebuild %d: loaded snapshot answers %+v, %v, %v; the engine answers %+v", len(j.buildWalls), got, ok, err, j.first)
		}
		j.handoffs = append(j.handoffs, float64(time.Since(t0))/1e3)
		if err := loaded.Close(); err != nil {
			return err
		}
		if err := j.sampleRSS(); err != nil {
			return err
		}
	}
	return nil
}

// serialBuild builds once at one worker and holds the result to the
// reference bytes. A snapshot echoes its build's worker count, so the serial
// engine is reloaded under the default count first: nothing else may differ.
func (j *offlineJob) serialBuild(r *result) error {
	t0 := time.Now()
	serial, err := memes.NewEngine(context.Background(), j.c.ds, j.c.site, memes.WithWorkers(1))
	if err != nil {
		return err
	}
	r.note("build_w1_ms", float64(time.Since(t0))/1e6, "ms")
	var buf bytes.Buffer
	if err := serial.Save(&buf); err != nil {
		return err
	}
	if serial, err = memes.LoadEngine(&buf, j.c.site, memes.WithWorkers(0)); err != nil {
		return err
	}
	buf.Reset()
	if err := serial.Save(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), j.snap) {
		r.problemf("the engine built at 1 worker saves different bytes from the one built at GOMAXPROCS workers")
	}
	return nil
}

// report times one Result → NewReport → Sections on a fresh engine and holds
// its text to the first report's hash.
func (j *offlineJob) report(r *result) error {
	// Result is cached per engine, so each repetition loads a fresh one from
	// the snapshot bytes (a millisecond, outside the timing).
	eng, err := memes.LoadEngine(bytes.NewReader(j.snap), j.c.site, memes.WithDataset(j.c.ds))
	if err != nil {
		return err
	}
	t0 := time.Now()
	rep, err := memes.NewReport(eng.Result())
	if err != nil {
		return err
	}
	sections, err := rep.Sections()
	if err != nil {
		return err
	}
	j.reportWalls = append(j.reportWalls, float64(time.Since(t0))/1e6)
	sum := sha256.New()
	for _, s := range sections {
		fmt.Fprintf(sum, "%s\n%s\n", s.Title, s.Body)
	}
	var digest [sha256.Size]byte
	copy(digest[:], sum.Sum(nil))
	if len(j.reportWalls) == 1 {
		j.reportHash = digest
	} else if digest != j.reportHash {
		r.problemf("report %d: text hash differs from the first report's", len(j.reportWalls))
	}
	return j.sampleRSS()
}

// sampleRSS reads this process's resident set.
func (j *offlineJob) sampleRSS() error {
	mb, err := rssMB(os.Getpid())
	j.rss = append(j.rss, mb)
	return err
}

// The shape of a build_report round: one report (two and a half seconds)
// with hashing and rebuilding beside it in the shares below, so that every
// number is the median of samples spread over the whole window, not of one
// stretch of it.
const (
	roundLength = 4 * time.Second
	hashShare   = 0.10
	buildShare  = 0.35
)

func runBuildReport(rc *runConfig) (*result, error) {
	r := newResult()
	setups := rc.reps(3)
	setup, job, err := setupOffline(rc, setups)
	if err != nil {
		return nil, err
	}
	r.metrics["setup_s"], r.samples["setup_s"] = setup.Seconds(), setups
	if err := job.serialBuild(r); err != nil {
		return nil, err
	}
	rounds := int(rc.window / roundLength)
	if rounds < 1 {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		job.hashImages(r, time.Duration(float64(rc.window)*hashShare)/time.Duration(rounds))
		if err := job.builds(r, time.Duration(float64(rc.window)*buildShare)/time.Duration(rounds)); err != nil {
			return nil, err
		}
		if err := job.report(r); err != nil {
			return nil, err
		}
	}
	rates := append(job.hashRates[0], job.hashRates[1]...)
	r.metrics["throughput_rps"], r.samples["throughput_rps"] = loadgen.Median(rates), job.hashed
	r.metrics["lat_p50_ms"], r.samples["lat_p50_ms"] = loadgen.Median(job.reportWalls), len(job.reportWalls)
	r.metrics["cpu_ms_per_req"], r.samples["cpu_ms_per_req"] = loadgen.Median(job.buildCPU), len(job.buildCPU)
	r.metrics["rss_mb"], r.samples["rss_mb"] = loadgen.Median(job.rss), len(job.rss)
	r.note("build_wn_ms", loadgen.Median(job.buildWalls), "ms")
	r.note("save_load_first_match_us", loadgen.Median(job.handoffs), "us")
	if rc.spans != nil {
		r.note("trace.overhead_share", loadgen.Median(job.hashRates[0])/loadgen.Median(job.hashRates[1])-1, "share")
		lat := rc.spans.durations()
		r.note("loadgen.lat_p90_ms", ms(loadgen.Percentile(lat, 0.90)), "ms")
		r.note("loadgen.lat_p99_ms", ms(loadgen.Percentile(lat, 0.99)), "ms")
	}
	r.attempted = job.hashed + len(job.buildWalls) + len(job.reportWalls)
	r.failed = len(r.problems)
	return r, nil
}
