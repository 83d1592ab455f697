// Command memebench executes the repo's named performance benchmark set —
// the build path (BenchmarkPipelineRun), the clustering phase
// (BenchmarkDBSCAN), the serve path per index strategy
// (BenchmarkEngineAssociate), the zero-alloc steady-state serve paths
// (EngineAssociateSteady, EngineMatchSteady), one POST /v1/match through the
// HTTP handler stack (ServeMatch), the Post wire codec over one 1,024-post
// body (PostCodec/parse, PostCodec/append), the decision log's encode and
// write of that request's 1,024 decisions (DecisionLog/upload), Step 1 hashing
// (BenchmarkPhashExtraction), the streaming ingest fast path (Ingest,
// posts/sec through Ingestor.Ingest), snapshot load-to-first-query per
// format version (EngineSnapshotLoad), and Step 7 (ReportSections: the
// first report of the process, then the reports after it) — and writes one
// BENCH_<label>.json
// document with ns/op, allocs/op, and the custom throughput metrics, using
// the same machine-readable conventions as the CLIs' -format json stats.
// The emitted file is one point of the repo's performance trajectory: CI
// uploads BENCH_ci.json on every run, and curated points are committed at
// the repo root.
//
// Usage:
//
//	memebench [-label ci] [-out BENCH_ci.json] [-benchtime 1x] [-workers N]
//
// The corpus matches the bench_test.go benchmark corpus, so numbers are
// comparable with `go test -bench`. -benchtime accepts everything the
// testing flag does ("1x", "100ms", ...); the default is the testing
// package's 1s target.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/benchcorpus"
	"github.com/memes-pipeline/memes/internal/cli"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/dataset"
	"github.com/memes-pipeline/memes/internal/declog"
	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/server"
)

func main() {
	label := flag.String("label", "local", "trajectory point label; also names the default output file")
	out := flag.String("out", "", "output path (default BENCH_<label>.json)")
	benchtime := flag.String("benchtime", "", "benchmark time target, as accepted by -test.benchtime (e.g. 1x, 2s)")
	workers := flag.Int("workers", 0, "full worker-pool size for the parallel variants (0 = GOMAXPROCS)")
	baseline := flag.String("baseline", "", "committed BENCH_<label>.json to gate this run against; exits non-zero on regression")
	regress := flag.Float64("regress", 0.30, "tolerated fractional images/sec drop (and ReportSections, DBSCAN ns/op rise) vs -baseline before the gate fails")
	testing.Init()
	flag.Parse()
	if err := validateLabel(*label); err != nil {
		log.Fatalf("invalid -label %q: %v", *label, err)
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			log.Fatalf("invalid -benchtime %q: %v", *benchtime, err)
		}
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}

	st, err := newBenchState()
	if err != nil {
		log.Fatalf("building benchmark corpus: %v", err)
	}
	full := *workers
	if full <= 0 {
		full = runtime.GOMAXPROCS(0)
	}

	doc := cli.NewBenchDoc(*label, flag.Lookup("test.benchtime").Value.String(), full)
	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			// testing.Benchmark reports a failed fn (b.Fatal) only as a
			// zero result; a zero point would silently corrupt the
			// trajectory, so fail the run instead.
			log.Fatalf("benchmark %s failed (zero iterations)", name)
		}
		doc.Add(name, r)
		fmt.Fprintf(os.Stderr, "%-40s %12d ns/op %8d allocs/op", name, r.NsPerOp(), r.AllocsPerOp())
		for k, v := range r.Extra {
			fmt.Fprintf(os.Stderr, "  %.0f %s", v, k)
		}
		fmt.Fprintln(os.Stderr)
	}

	// The first report of a process also computes the sections that are the
	// same for every corpus and are kept from then on: one sample, taken
	// before anything else can have rendered them.
	reports, err := st.newReportBench()
	if err != nil {
		log.Fatalf("preparing ReportSections: %v", err)
	}
	coldStart := time.Now()
	if err := reports.render(); err != nil {
		log.Fatalf("benchmark ReportSections/cold failed: %v", err)
	}
	cold := testing.BenchmarkResult{N: 1, T: time.Since(coldStart)}
	doc.Add("ReportSections/cold", cold)
	fmt.Fprintf(os.Stderr, "%-40s %12d ns/op (one sample)\n", "ReportSections/cold", cold.NsPerOp())
	run("ReportSections/warm", reports.bench)

	workerCounts := []int{1}
	if full > 1 {
		workerCounts = append(workerCounts, full)
	}
	for _, w := range workerCounts {
		w := w
		run(fmt.Sprintf("PipelineRun/workers_%d", w), func(b *testing.B) { st.benchPipelineRun(b, w) })
	}
	for _, w := range workerCounts {
		w := w
		run(fmt.Sprintf("DBSCAN/workers_%d", w), func(b *testing.B) { st.benchDBSCAN(b, w) })
	}
	for _, strategy := range memes.IndexStrategies() {
		strategy := strategy
		run("EngineAssociate/"+string(strategy), func(b *testing.B) { st.benchEngineAssociate(b, strategy) })
	}
	for _, strategy := range steadyStrategies() {
		strategy := strategy
		run("EngineAssociateSteady/"+string(strategy), func(b *testing.B) { st.benchEngineAssociateSteady(b, strategy) })
	}
	for _, strategy := range steadyStrategies() {
		strategy := strategy
		run("EngineMatchSteady/"+string(strategy), func(b *testing.B) { st.benchEngineMatchSteady(b, strategy) })
	}
	run("ServeMatch", func(b *testing.B) { st.benchServeMatch(b) })
	codec, err := newPostCodecBench()
	if err != nil {
		log.Fatalf("preparing PostCodec: %v", err)
	}
	run("PostCodec/parse", codec.benchParse)
	run("PostCodec/append", codec.benchAppend)
	run("DecisionLog/upload", codec.benchUpload)
	// Load-to-first-query runs before the heap-heavy Ingest benchmark so a
	// GC cycle over ingest garbage cannot land inside the short timed loop.
	for _, v := range []struct {
		name    string
		version uint32
	}{{"v1", memes.SnapshotV1}, {"v2", memes.SnapshotV2}} {
		v := v
		run("EngineSnapshotLoad/"+v.name, func(b *testing.B) { st.benchEngineSnapshotLoad(b, v.version) })
	}
	run("PhashExtraction", func(b *testing.B) { benchPhashExtraction(b) })
	run("Ingest", func(b *testing.B) { st.benchIngest(b) })

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatalf("encoding %s: %v", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmark results to %s\n", len(doc.Benchmarks), path)

	// The trajectory gate: the fresh point must not fall off a cliff
	// relative to the committed baseline. The tolerance absorbs runner
	// noise; order-of-magnitude regressions fail the run.
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatalf("reading baseline: %v", err)
		}
		var base cli.BenchDoc
		if err := json.Unmarshal(raw, &base); err != nil {
			log.Fatalf("decoding baseline %s: %v", *baseline, err)
		}
		violations := gate(&base, &doc, *regress)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "REGRESSION: "+v)
		}
		if len(violations) > 0 {
			log.Fatalf("%d regression(s) vs %s", len(violations), *baseline)
		}
		fmt.Fprintf(os.Stderr, "no regression vs %s (tolerance %.0f%%)\n", *baseline, 100**regress)
	}
}

// gatedPrefixes names the benchmark families the -baseline gate covers: the
// end-to-end build path and the per-strategy serve path.
var gatedPrefixes = []string{"PipelineRun/", "EngineAssociate/"}

// allocGatedPrefixes names the families whose allocs/op is a hard ceiling:
// the zero-alloc steady-state serve paths and Step 1 hashing.
var allocGatedPrefixes = []string{"EngineAssociateSteady/", "EngineMatchSteady/", "PhashExtraction"}

// nsGatedPrefixes names the families whose ns/op is a ceiling: Step 7 and
// DBSCAN's phase one.
var nsGatedPrefixes = []string{"ReportSections/", "DBSCAN/"}

// gate is the -baseline check, one line per violation: images/sec floors
// on the build and serve headlines, allocs/op ceilings on the steady-state
// paths (a baseline of 0 means 0 forever: no tolerance loosens a zero-alloc
// invariant), and ns/op ceilings on the families timed by wall. A baseline
// taken at another benchtime is refused.
func gate(base, fresh *cli.BenchDoc, tolerance float64) []string {
	violations := cli.CompareBench(base, fresh, gatedPrefixes, "images_per_sec", tolerance)
	violations = append(violations, cli.CompareBenchAllocs(base, fresh, allocGatedPrefixes, tolerance)...)
	return append(violations, cli.CompareBenchNs(base, fresh, nsGatedPrefixes, tolerance)...)
}

// steadyStrategies lists the index strategies whose steady-state serve path
// is pinned to zero allocations: every built-in.
func steadyStrategies() []memes.IndexStrategy {
	return []memes.IndexStrategy{memes.IndexBKTree, memes.IndexMultiIndex, memes.IndexSharded}
}

// validateLabel rejects labels that would escape the working directory when
// interpolated into the BENCH_<label>.json output filename.
func validateLabel(label string) error {
	if label == "" {
		return errors.New("label is empty")
	}
	if strings.ContainsAny(label, `/\`) || strings.Contains(label, "..") {
		return errors.New("label must not contain path separators or ..")
	}
	for _, r := range label {
		if r <= 0x20 || r == 0x7f {
			return fmt.Errorf("label contains control or space character %q", r)
		}
	}
	return nil
}

// benchState is the shared corpus — benchcorpus.Config, the same corpus
// bench_test.go generates — so memebench numbers are comparable with
// `go test -bench` output.
type benchState struct {
	ds   *dataset.Dataset
	site *memes.AnnotationSite
}

func newBenchState() (*benchState, error) {
	ds, err := dataset.Generate(benchcorpus.Config())
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		return nil, fmt.Errorf("building site: %w", err)
	}
	return &benchState{ds: ds, site: site}, nil
}

// reportBench renders the full report the way memeload's build_report does:
// every report on an engine freshly loaded from snapshot bytes, because an
// engine caches its Result and a report must not be timed against that.
type reportBench struct {
	st   *benchState
	snap []byte
}

func (st *benchState) newReportBench() (*reportBench, error) {
	eng, err := memes.NewEngine(context.Background(), st.ds, st.site)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		return nil, err
	}
	return &reportBench{st: st, snap: buf.Bytes()}, nil
}

// load returns an engine that has not produced its Result yet.
func (r *reportBench) load() (*memes.Engine, error) {
	return memes.LoadEngine(bytes.NewReader(r.snap), r.st.site, memes.WithDataset(r.st.ds))
}

// render is one Result → NewReport → Sections.
func (r *reportBench) render() error {
	eng, err := r.load()
	if err != nil {
		return err
	}
	return renderReport(eng)
}

func renderReport(eng *memes.Engine) error {
	rep, err := memes.NewReport(eng.Result())
	if err != nil {
		return err
	}
	_, err = rep.Sections()
	return err
}

// bench times the reports after the process's first, the load excluded.
func (r *reportBench) bench(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := r.load()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := renderReport(eng); err != nil {
			b.Fatal(err)
		}
	}
}

func (st *benchState) benchPipelineRun(b *testing.B, workers int) {
	cfg := pipeline.DefaultConfig()
	cfg.Workers = workers
	b.ReportAllocs()
	var res *pipeline.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = pipeline.Run(st.ds, st.site, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Stats.ImagesPerSec(), "images_per_sec")
	if st, ok := res.Stats.Stage(pipeline.StageNeighbours); ok {
		b.ReportMetric(st.Throughput(), "neighbour_points_per_sec")
	}
}

func (st *benchState) benchDBSCAN(b *testing.B, workers int) {
	hashes, counts, _ := st.ds.FringeImageHashes()
	if len(hashes) == 0 {
		b.Fatal("no fringe hashes")
	}
	cfg := cluster.DefaultDBSCANConfig()
	cfg.Workers = workers
	b.ReportAllocs()
	b.ResetTimer()
	var res cluster.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = cluster.DBSCAN(hashes, counts, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Neighbourhoods.PointsPerSec(), "neighbour_points_per_sec")
}

func (st *benchState) benchEngineAssociate(b *testing.B, strategy memes.IndexStrategy) {
	ctx := context.Background()
	eng, err := memes.NewEngine(ctx, st.ds, st.site, memes.WithIndex(strategy))
	if err != nil {
		b.Fatal(err)
	}
	imagePosts := 0
	for i := range st.ds.Posts {
		if st.ds.Posts[i].HasImage {
			imagePosts++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Associate(ctx, st.ds.Posts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(imagePosts)*float64(b.N)/secs, "images_per_sec")
	}
}

// benchEngineAssociateSteady measures the serve path the way a resident
// server runs it: AssociateAppend into a recycled caller-owned buffer, after
// one warm-up pass has grown the buffer and seeded the query scratch pool.
// Allocs/op is the gated quantity; throughput is informational.
func (st *benchState) benchEngineAssociateSteady(b *testing.B, strategy memes.IndexStrategy) {
	ctx := context.Background()
	eng, err := memes.NewEngine(ctx, st.ds, st.site, memes.WithIndex(strategy))
	if err != nil {
		b.Fatal(err)
	}
	imagePosts := 0
	for i := range st.ds.Posts {
		if st.ds.Posts[i].HasImage {
			imagePosts++
		}
	}
	out, err := eng.AssociateAppend(ctx, st.ds.Posts, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = eng.AssociateAppend(ctx, st.ds.Posts, out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(imagePosts)*float64(b.N)/secs, "images_per_sec")
	}
}

// benchEngineMatchSteady measures single-hash Match against annotated
// medoids after one warm-up query has seeded the scratch pool; the steady
// state must report zero allocs/op.
func (st *benchState) benchEngineMatchSteady(b *testing.B, strategy memes.IndexStrategy) {
	ctx := context.Background()
	eng, err := memes.NewEngine(ctx, st.ds, st.site, memes.WithIndex(strategy))
	if err != nil {
		b.Fatal(err)
	}
	var queries []memes.Hash
	for _, c := range eng.Clusters() {
		if c.Annotated() {
			queries = append(queries, c.MedoidHash)
		}
	}
	if len(queries) == 0 {
		b.Fatal("no annotated clusters in bench corpus")
	}
	// Warm every query once: the pooled scratch grows to the largest result
	// set before counting, so one-time growth never shows up as allocs/op.
	for _, q := range queries {
		if _, _, err := eng.Match(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Match(ctx, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeMatch measures one POST /v1/match through server.Handler() with
// the decision log on: the lookup's whole server-side stack (admission,
// deadline, body read, parse, probe, capture, encode) plus httptest's
// recorder and request. It is recorded, not gated; the allocation ceiling
// of the same path is internal/server's TestMatchAllocCeiling.
func (st *benchState) benchServeMatch(b *testing.B) {
	eng, err := memes.NewEngine(context.Background(), st.ds, st.site)
	if err != nil {
		b.Fatal(err)
	}
	logger, err := declog.New(declog.Config{Sink: discardSink{}})
	if err != nil {
		b.Fatal(err)
	}
	defer logger.Close()
	srv, err := server.New(server.Config{Loader: func() (*memes.Engine, error) { return eng, nil }, DecisionLog: logger})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	var bodies [][]byte
	for _, c := range eng.Clusters() {
		if c.Annotated() {
			bodies = append(bodies, []byte(`{"hash":"`+c.MedoidHash.String()+`"}`))
		}
	}
	if len(bodies) == 0 {
		b.Fatal("no annotated clusters in bench corpus")
	}
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve(bodies[0]) // sizes the pooled buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}

// postCodecBench is one /v1/associate body's worth of posts — the first
// 1,024 of the small corpus, the profile memeload's associate_small draws
// from — the comma-separated run of their JSON objects that sits inside the
// body's array, and the decisions the server logs for that request. One op
// parses, prints or uploads all 1,024. Recorded, not gated.
type postCodecBench struct {
	posts     []dataset.Post
	body      []byte
	decisions []declog.Decision
}

func newPostCodecBench() (*postCodecBench, error) {
	ds, err := dataset.Generate(dataset.SmallConfig())
	if err != nil {
		return nil, err
	}
	const batch = 1024
	if len(ds.Posts) < batch {
		return nil, fmt.Errorf("small corpus has %d posts, want %d", len(ds.Posts), batch)
	}
	c := &postCodecBench{posts: ds.Posts[:batch]}
	for i := range c.posts {
		if i > 0 {
			c.body = append(c.body, ',')
		}
		if c.body, err = dataset.AppendPost(c.body, &c.posts[i]); err != nil {
			return nil, err
		}
	}
	if c.decisions, err = associateDecisions(ds, c.posts); err != nil {
		return nil, err
	}
	return c, nil
}

// associateDecisions associates posts on the engine of ds and returns the
// decisions /v1/associate logs for them: one per post, sharing the clock
// read, endpoint and generation of one LogBatch call.
func associateDecisions(ds *dataset.Dataset, posts []dataset.Post) ([]declog.Decision, error) {
	site, err := ds.Site(true)
	if err != nil {
		return nil, err
	}
	eng, err := memes.NewEngine(context.Background(), ds, site)
	if err != nil {
		return nil, fmt.Errorf("building the small engine: %w", err)
	}
	assocs, err := eng.Associate(context.Background(), posts)
	if err != nil {
		return nil, fmt.Errorf("associating the posts: %w", err)
	}
	clusters := eng.Clusters()
	now := time.Now().UnixNano()
	out := make([]declog.Decision, len(posts))
	for i := range posts {
		out[i] = declog.Decision{Seq: uint64(i + 1), TimeUnixNS: now, Endpoint: "associate", Generation: 1,
			Post: posts[i], ClusterID: -1, Distance: -1}
	}
	for _, a := range assocs {
		d := &out[a.PostIndex]
		d.Matched, d.ClusterID, d.Distance = true, a.ClusterID, a.Distance
		d.Entry = clusters[a.ClusterID].EntryName()
	}
	return out, nil
}

// benchParse reads the body with one PostParser, as parsePosts does.
func (c *postCodecBench) benchParse(b *testing.B) {
	var parser dataset.PostParser
	var p dataset.Post
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(c.body); j++ {
			n, ok := parser.Parse(c.body[j:], &p)
			if !ok {
				b.Fatalf("declined the post at byte %d", j)
			}
			j += n
		}
	}
}

// benchAppend prints the posts into one reused buffer, as the decision log
// does.
func (c *postCodecBench) benchAppend(b *testing.B) {
	buf := make([]byte, 0, 2*len(c.body))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j := range c.posts {
			var err error
			if buf, err = dataset.AppendPost(buf, &c.posts[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchUpload hands the request's decisions to a FileSink writing to
// os.DevNull: the NDJSON encode and one write, what the decision log's
// flusher does per request off the serve path.
func (c *postCodecBench) benchUpload(b *testing.B) {
	sink, err := declog.NewFileSink(os.DevNull)
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	ctx := context.Background()
	if err := sink.Upload(ctx, c.decisions); err != nil { // sizes the sink's buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.Upload(ctx, c.decisions); err != nil {
			b.Fatal(err)
		}
	}
}

// discardSink drops the decision log's batches.
type discardSink struct{}

func (discardSink) Upload(context.Context, []declog.Decision) error { return nil }

// benchEngineSnapshotLoad measures load-to-first-query: LoadEngineFile on a
// saved snapshot of the given format version followed by one Match. The v2
// point is the headline the flat format exists for.
func (st *benchState) benchEngineSnapshotLoad(b *testing.B, version uint32) {
	ctx := context.Background()
	eng, err := memes.NewEngine(ctx, st.ds, st.site)
	if err != nil {
		b.Fatal(err)
	}
	var query memes.Hash
	found := false
	for _, c := range eng.Clusters() {
		if c.Annotated() {
			query, found = c.MedoidHash, true
			break
		}
	}
	if !found {
		b.Fatal("no annotated clusters in bench corpus")
	}
	dir, err := os.MkdirTemp("", "memebench-snap-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, fmt.Sprintf("v%d.snap", version))
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.SaveVersion(f, version); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	// Drain garbage from the build and earlier benchmarks so the timed loop
	// measures the load, not a GC cycle over the whole process heap.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := memes.LoadEngineFile(path, st.site)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := loaded.Match(ctx, query); err != nil {
			b.Fatal(err)
		}
		if err := loaded.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchIngest measures the streaming-ingest fast path: every post in the
// corpus is fed through Ingestor.Ingest against a resident engine, so the
// rate is dominated by the probe-and-assign step (posts matching annotated
// medoids are servable immediately). The threshold is set out of reach so
// no background re-cluster runs inside the timed loop, and the journal is
// disabled — this is the pure in-memory absorption rate. Every iteration
// ingests into a fresh Ingestor, built and closed outside the timer, so
// each starts from an empty pending pool and ns/op and bytes/op do not
// depend on b.N.
func (st *benchState) benchIngest(b *testing.B) {
	ctx := context.Background()
	eng, err := memes.NewEngine(ctx, st.ds, st.site)
	if err != nil {
		b.Fatal(err)
	}
	hot := memes.NewHotEngine(eng)
	batch := st.ds.Posts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := memes.NewIngestor(hot, st.ds, st.site, memes.IngestConfig{Threshold: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := g.Ingest(ctx, batch); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := g.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(batch))*float64(b.N)/secs, "posts_per_sec")
	}
}

func benchPhashExtraction(b *testing.B) {
	tmpl := imaging.Template(1)
	if _, err := memes.HashImage(tmpl); err != nil { // warm the hasher pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memes.HashImage(tmpl); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "images_per_sec")
	}
}
