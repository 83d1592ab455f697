//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/memes-pipeline/memes/benchmark/loadgen"
)

// runConfig is what every workload run is given.
type runConfig struct {
	root   string        // repository root
	out    string        // benchmark/out: traces and the memeserve binary
	dir    string        // scratch directory of this invocation, removed at exit
	nproc  int           // clients and connections never exceed it
	seed   int64         // draws the requests; the corpora are fixed
	window time.Duration // total timed window of one run (--seconds)
	warm   time.Duration // discarded lead-in of every timed phase

	// The traced pass runs a workload's load through the same code with two
	// changes: one set-up instead of the median of several, and, when spans
	// is set, a span recorded for every request.
	setups int
	spans  *spanSink
}

// reps is the number of times to repeat a set-up that normally runs n times.
func (rc *runConfig) reps(n int) int {
	if rc.setups > 0 {
		return rc.setups
	}
	return n
}

// result is what one untraced workload run reports.
type result struct {
	metrics   map[string]float64 // every end-to-end metric
	samples   map[string]int     // sample count behind each metric
	attempted int
	failed    int
	problems  []string  // failed invariants: any entry makes the run incorrect
	info      []infoRow // extra rows for the human-readable table
}

// infoRow is a number worth printing that is not a gated metric.
type infoRow struct {
	name  string
	value float64
	unit  string
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(name string, value float64, unit string) {
	r.info = append(r.info, infoRow{name, value, unit})
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

// pacedMatchRate is the open-loop /v1/match rate of match_small's second
// phase, about a quarter of what the closed loop saturates at on two cores:
// high enough that queueing would show, low enough that it should not.
const pacedMatchRate = 8000

// Rates of ingest_mixed. Ingest is paced because a saturating closed loop
// only measures backpressure: the pending pool fills and the server answers
// pool_full 503s. 200 batches of 8 posts a second is about two re-clusters a
// second and a compaction every few seconds.
const (
	ingestRate     = 200
	mixedMatchRate = 1000
)

// readLimit is the latency limit a lookup must meet, from its due time, to
// count towards ingest_mixed's throughput: an order of magnitude above the
// unloaded round trip, about where the server's background work leaves nine
// lookups in ten.
const readLimit = 10 * time.Millisecond

// serveEnv is a booted memeserve with the corpus it serves.
type serveEnv struct {
	rc      *runConfig
	c       *corpus
	srv     *child
	dir     string
	bin     string
	args    []string
	setup   time.Duration
	setups  int
	sentTo  map[string]int // requests the client has sent, by endpoint
	refused int            // non-2xx answers the client has seen
}

// setupServe performs the whole set-up reps times — generate the corpus,
// build its engine, write corpus and snapshot, compile memeserve, boot it
// until /v1/readyz answers 200 — and keeps the last one running. setup_s is
// the median repetition: a single set-up of the small corpus is half a
// second, too short to repeat within its bound without the median.
func setupServe(rc *runConfig, corpusName string, reps int, ingest bool) (*serveEnv, error) {
	reps = rc.reps(reps)
	var walls []time.Duration
	var env *serveEnv
	for rep := 0; rep < reps; rep++ {
		if env != nil {
			if _, err := env.srv.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(env.dir); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(rc.dir, corpusName+"-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		c, err := makeCorpus(corpusName)
		if err != nil {
			return nil, err
		}
		if err := c.write(dir); err != nil {
			return nil, err
		}
		bin, err := buildServer(rc.root, filepath.Join(rc.out, "bin"))
		if err != nil {
			return nil, err
		}
		// Shipped defaults plus the decision log; ingest adds the journal.
		args := []string{"-load", c.snap, "-in", c.dir, "-decision-log", filepath.Join(dir, "decisions.ndjson")}
		if ingest {
			args = append(args, "-ingest-threshold", "256", "-delta-dir", filepath.Join(dir, "deltas"))
		}
		srv, err := startServer(bin, filepath.Join(dir, "memeserve.log"), args...)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(start))
		env = &serveEnv{rc: rc, c: c, srv: srv, dir: dir, bin: bin, args: args, sentTo: map[string]int{}}
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	env.setup, env.setups = walls[len(walls)/2], len(walls)
	return env, nil
}

// serveMetrics fills the load metrics of a serve workload: throughput and
// CPU per request from the load phase, the median latency of the named
// streams (all when none is named) from the latency phase, which is the same
// phase except in match_small. The tails are printed and not gated: between
// runs of unchanged code on this machine p90 spreads up to 33 percent and
// p99 up to 47, more than any bound the driver accepts.
func serveMetrics(r *result, load, latency *phase, streams ...string) {
	r.metrics["throughput_rps"] = load.rps()
	r.metrics["cpu_ms_per_req"] = load.serverMSPerReq()
	r.samples["throughput_rps"], r.samples["cpu_ms_per_req"] = load.correct(), load.correct()
	r.metrics["lat_p50_ms"] = latency.quantileMS(0.5, streams...)
	for _, s := range latency.streams(streams) {
		r.samples["lat_p50_ms"] += len(s.Latency)
	}
	r.note("loadgen.lat_p90_ms", latency.quantileMS(0.90, streams...), "ms")
	r.note("loadgen.lat_p99_ms", latency.quantileMS(0.99, streams...), "ms")
	// The resident set is read at every slice boundary and reported as the
	// median reading: the high-water mark depends on where the collector
	// happened to be and spreads 14 percent between runs, the median 1.
	rss := append(load.rss[:], latency.rss[:]...)
	r.metrics["rss_mb"], r.samples["rss_mb"] = loadgen.Median(rss), len(rss)
	r.note("loadgen.cpu_share", load.clientShare(), "share")
	r.note("loadgen.stolen_share", load.stolenShare(), "share")
	if latency.spans {
		r.note("trace.overhead_share", latency.traceOverhead(streams), "share")
	}
}

// pooledStreams builds n streams over a request pool, each walking the same
// seeded permutation from its own offset, at an aggregate open-loop rate
// with staggered due times; rate 0 makes them closed loops.
func pooledStreams(name string, n int, rate float64, wire [][]byte, check func(int, int, []byte) bool, rng *rand.Rand) []loadgen.Stream {
	order := rng.Perm(len(wire))
	streams := make([]loadgen.Stream, n)
	for c := range streams {
		offset := c * len(order) / n
		streams[c] = loadgen.Stream{
			Name:  name,
			Rate:  rate / float64(n),
			Check: check,
			Next: func(i int) ([]byte, int, bool) {
				key := order[(offset+i)%len(order)]
				return wire[key], key, true
			},
		}
		if rate > 0 {
			streams[c].Offset = time.Duration(float64(c) / rate * float64(time.Second))
		}
	}
	return streams
}

// finishServe fills the metrics every serve workload shares, cross-checks
// the client's counts against the server's own, and stops the server.
func (e *serveEnv) finishServe(r *result) error {
	r.metrics["setup_s"] = e.setup.Seconds()
	r.samples["setup_s"] = e.setups
	if err := e.crossCheck(r); err != nil {
		return err
	}
	drain, err := e.srv.stop()
	if err != nil {
		return err
	}
	r.note("memeserve.drain_ms", float64(drain)/1e6, "ms")
	if e.c.feed != nil {
		// The journal is still needed: checkDurability restarts on it.
		return nil
	}
	return os.RemoveAll(e.dir)
}

func runMatchSmall(rc *runConfig) (*result, error) {
	env, err := setupServe(rc, corpusSmall, 3, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	pool, err := newMatchPool(env.c, rng)
	if err != nil {
		return nil, err
	}
	r := newResult()
	r.note("pool_hit_share", pool.hitShare(), "share")
	endpoint := map[string]string{"match": "match"}

	// Phase sat: closed loop, nproc clients — what the server can do.
	sat, err := env.measure(endpoint, pooledStreams("match", rc.nproc, 0, pool.wire, pool.check, rng), rc.warm, rc.window*2/5)
	if err != nil {
		return nil, err
	}
	sat.tally(r)
	r.note("sat_lat_p50_ms", sat.quantileMS(0.5), "ms")
	r.note("sat_lat_p99_ms", sat.quantileMS(0.99), "ms")

	// Phase paced: open loop at a fixed rate — what a user sees below
	// saturation.
	paced, err := env.measure(endpoint, pooledStreams("match", rc.nproc, pacedMatchRate, pool.wire, pool.check, rng), rc.warm, rc.window*3/5)
	if err != nil {
		return nil, err
	}
	paced.tally(r)
	serveMetrics(r, sat, paced)
	r.note("paced_rps", paced.rps(), "1/s")
	r.note("loadgen.sched_lag_p50_us", paced.lagUS(0.5), "us")
	r.note("loadgen.sched_lag_p99_us", paced.lagUS(0.99), "us")
	return r, env.finishServe(r)
}

func runAssociate(rc *runConfig, corpusName string, setups int) (*result, error) {
	env, err := setupServe(rc, corpusName, setups, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	pool, err := newAssociatePool(env.c, rng)
	if err != nil {
		return nil, err
	}
	r := newResult()
	p, err := env.measure(map[string]string{"associate": "associate"},
		pooledStreams("associate", rc.nproc, 0, pool.wire, pool.check, rng), rc.warm, rc.window)
	if err != nil {
		return nil, err
	}
	p.tally(r)
	serveMetrics(r, p, p)
	r.note("posts_per_s", r.metrics["throughput_rps"]*associateBatch, "1/s")
	return r, env.finishServe(r)
}

func runIngestMixed(rc *runConfig) (*result, error) {
	env, err := setupServe(rc, corpusStream, 3, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	pool, err := newMatchPool(env.c, rng)
	if err != nil {
		return nil, err
	}
	feed, err := newIngestFeed(env.c.feed)
	if err != nil {
		return nil, err
	}
	// An open loop sends every request that falls due before the window
	// closes, so the number of batches is known before the run starts, and
	// with it the engine the server must end on.
	total := rc.warm + rc.window
	batches := int(total.Seconds() * ingestRate)
	if batches > len(feed.wire) {
		return nil, fmt.Errorf("ingest_mixed: a %v run needs %d batches, the feed holds %d", total, batches, len(feed.wire))
	}
	final, err := env.c.withFeed(batches * ingestBatch)
	if err != nil {
		return nil, err
	}
	if pool.later, err = matchAnswers(final, pool.hashes); err != nil {
		return nil, err
	}

	streams := pooledStreams("match", 1, mixedMatchRate, pool.wire, pool.check, rng)
	streams = append(streams, loadgen.Stream{
		Name:  "ingest",
		Rate:  ingestRate,
		Check: feed.check,
		Next: func(i int) ([]byte, int, bool) {
			if i >= batches {
				return nil, 0, false
			}
			return feed.wire[i], i, true
		},
	})
	r := newResult()
	p, err := env.measure(map[string]string{"match": "match", "ingest": "ingest"}, streams, rc.warm, rc.window)
	if err != nil {
		return nil, err
	}
	p.tally(r)
	// Both rates are pegged by the open loop, so throughput here is goodput:
	// lookups answered within readLimit of their due time. The latencies are
	// the ingest batches'; together the two say what writes cost reads and
	// what reads cost writes.
	serveMetrics(r, p, p, "ingest")
	width := float64(p.to-p.from) / slices / 1e9
	r.metrics["throughput_rps"] = p.perSlice([]string{"match"}, func(_ int, sorted []int64) float64 {
		within := sort.Search(len(sorted), func(i int) bool { return sorted[i] > int64(readLimit) })
		return float64(within) / width
	})
	r.note("answered_rps", p.rps(), "1/s")
	for _, q := range []float64{0.5, 0.9, 0.99} {
		r.note(fmt.Sprintf("match_lat_p%g_ms", q*100), p.quantileMS(q, "match"), "ms")
	}
	r.note("loadgen.sched_lag_p50_us", p.lagUS(0.5), "us")
	r.note("loadgen.sched_lag_p99_us", p.lagUS(0.99), "us")
	if err := env.finishServe(r); err != nil {
		return nil, err
	}
	return r, env.checkDurability(r, final, batches*ingestBatch)
}

// runWorkload dispatches one untraced run.
func runWorkload(rc *runConfig, name string) (*result, error) {
	switch name {
	case wlMatchSmall:
		return runMatchSmall(rc)
	case wlAssociateSmall:
		return runAssociate(rc, corpusSmall, 3)
	case wlAssociateLarge:
		// One set-up: the large corpus takes six seconds to generate, write,
		// build and boot, long enough to repeat within its bound on its own.
		return runAssociate(rc, corpusLarge, 1)
	case wlIngestMixed:
		return runIngestMixed(rc)
	case wlBuildReport:
		return runBuildReport(rc)
	}
	return nil, fmt.Errorf("memeload: unknown workload %q", name)
}
