//go:build linux

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"image"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/benchmark/loadgen"
	"github.com/memes-pipeline/memes/internal/cluster"
	"github.com/memes-pipeline/memes/internal/declog"
	"github.com/memes-pipeline/memes/internal/hawkes"
	"github.com/memes-pipeline/memes/internal/imaging"
	"github.com/memes-pipeline/memes/internal/index"
	"github.com/memes-pipeline/memes/internal/metrics"
	"github.com/memes-pipeline/memes/internal/parallel"
	"github.com/memes-pipeline/memes/internal/phash"
	"github.com/memes-pipeline/memes/internal/pipeline"
	"github.com/memes-pipeline/memes/internal/server"
)

// The traced pass. It measures every layer the same way whatever the
// workload — so every traced run reports every per-layer metric — and then
// does the two things that do depend on the workload: it runs the workload's
// load with and without span recording (the loaded-window counters and
// trace.overhead_share) and writes the workload's onion to
// out/trace-<workload>.json.

// traced is the state of one traced run.
type traced struct {
	rc    *runConfig
	r     *result
	ctx   context.Context
	rng   *rand.Rand
	began time.Time // zero of the trace file's clock

	small, large, stream *corpus
	matches              *matchPool     // over small
	assocSmall           *associatePool // over small
	assocLarge           *associatePool // over large
	feed                 *ingestFeed    // over stream

	onions map[string]*onion
}

// onionRequests is the fixed sample of requests each onion replays.
const onionRequests = 64

func (t *traced) set(name string, v float64) { t.r.metrics[name] = v }

// meanNS is the mean wall time of n calls of f, in nanoseconds.
func meanNS(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianMS is the median wall time of reps calls of f, in milliseconds.
func medianMS(reps int, f func()) float64 {
	var walls []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		walls = append(walls, float64(time.Since(start))/1e6)
	}
	return loadgen.Median(walls)
}

// mallocs is the number of heap allocations per call of f over n calls.
func mallocs(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func runTraced(rc *runConfig, workload string) (*result, error) {
	// A directory of its own, so that a second traced run of the same
	// invocation does not boot on the first one's journal.
	own := *rc
	dir, err := os.MkdirTemp(rc.dir, "traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	own.dir, rc = dir, &own
	t := &traced{rc: rc, r: newResult(), ctx: context.Background(), began: time.Now(),
		rng: rand.New(rand.NewSource(rc.seed)), onions: map[string]*onion{}}
	steps := []func() error{t.corpora, t.phash, t.cluster, t.index, t.pipeline, t.handlers,
		t.smallParts, t.ingest, t.analysis, t.processes}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if err := t.window(workload); err != nil {
		return nil, err
	}
	return t.r, t.writeTrace(workload)
}

// expect records a failed expectation of the traced pass itself.
func (t *traced) expect(ok bool, format string, args ...any) {
	if !ok {
		t.r.problemf(format, args...)
	}
}

// --- dataset, builds ---------------------------------------------------------

func (t *traced) corpora() error {
	var err error
	if t.small, err = makeCorpus(corpusSmall); err != nil {
		return err
	}
	if t.large, err = makeCorpus(corpusLarge); err != nil {
		return err
	}
	if t.stream, err = makeCorpus(corpusStream); err != nil {
		return err
	}
	t.set("dataset.generate_small_ms", float64(t.small.gen)/1e6)
	t.set("dataset.generate_large_ms", float64(t.large.gen)/1e6)
	for _, c := range []*corpus{t.small, t.large, t.stream} {
		if err := c.write(t.rc.dir); err != nil {
			return err
		}
	}
	// write saved the large corpus once already; time a second save and the
	// load memeserve performs at boot.
	t.set("dataset.save_large_ms", medianMS(1, func() { err = t.large.ds.Save(t.large.dir) }))
	if err != nil {
		return err
	}
	t.set("dataset.load_large_ms", medianMS(1, func() { _, err = memes.LoadDataset(t.large.dir) }))
	if err != nil {
		return err
	}

	if t.matches, err = newMatchPool(t.small, t.rng); err != nil {
		return err
	}
	if t.assocSmall, err = newAssociatePool(t.small, t.rng); err != nil {
		return err
	}
	if t.assocLarge, err = newAssociatePool(t.large, t.rng); err != nil {
		return err
	}
	t.feed, err = newIngestFeed(t.stream.feed)
	return err
}

// fringe returns the distinct fringe hashes of the small corpus with their
// occurrence counts: the input of Steps 2-3.
func (t *traced) fringe() ([]phash.Hash, []int) {
	hashes, counts, _ := t.small.ds.FringeImageHashes()
	return hashes, counts
}

// medoids returns the annotated medoid hashes of a corpus's engine: the
// contents of the Step 6 index.
func medoids(c *corpus) []phash.Hash {
	var out []phash.Hash
	for _, ci := range c.eng.Clusters() {
		if ci.Annotated() {
			out = append(out, ci.MedoidHash)
		}
	}
	return out
}

// medoidTree builds the sealed BK-tree the engine serves a corpus from.
func medoidTree(c *corpus) *phash.BKTree {
	tree := phash.NewBKTree()
	for i, h := range medoids(c) {
		tree.Insert(h, int64(i))
	}
	tree.Seal()
	return tree
}

// --- phash -------------------------------------------------------------------

func (t *traced) phash() error {
	var images []image.Image
	for i := 0; i < offlineImages; i++ {
		images = append(images, imaging.Variant(imaging.Template(int64(i/8)), int64(i), 0.2))
	}
	var err error
	t.set("phash.hash_image_us", meanNS(8*len(images), func(i int) {
		if _, herr := memes.HashImage(images[i%len(images)]); herr != nil {
			err = herr
		}
	})/1e3)
	if err != nil {
		return err
	}

	hashes, _ := t.fringe()
	var lists [][]int32
	t.set("phash.neighbourhoods_ms", medianMS(2, func() {
		lists = phash.Neighbourhoods(hashes, pipeline.DefaultConfig().Clustering.Eps, t.rc.nproc)
	}))
	pairs := 0
	for _, l := range lists {
		pairs += len(l)
	}
	t.set("phash.neighbour_pairs", float64(pairs))

	for _, c := range []*corpus{t.small, t.large} {
		tree := medoidTree(c)
		queries := t.matches.hashes
		t.set("phash.nearest_"+c.name+"_ns", meanNS(4*len(queries), func(i int) { tree.Nearest(queries[i%len(queries)]) }))
	}
	return nil
}

// --- cluster, annotate -------------------------------------------------------

func (t *traced) cluster() error {
	hashes, counts := t.fringe()
	var res cluster.Result
	var err error
	for _, w := range []struct {
		metric  string
		workers int
	}{{"cluster.dbscan_w1_ms", 1}, {"cluster.dbscan_wn_ms", t.rc.nproc}} {
		cfg := cluster.DefaultDBSCANConfig()
		cfg.Workers = w.workers
		t.set(w.metric, medianMS(2, func() { res, err = cluster.DBSCAN(hashes, counts, cfg) }))
		if err != nil {
			return err
		}
	}
	t.set("cluster.medoids_ms", medianMS(3, func() { cluster.MaterializeParallel(hashes, counts, res, t.rc.nproc) }))

	// The incremental path: prime on all but the last 512 distinct hashes,
	// then time the re-cluster that extends the neighbourhoods by those.
	inc, err := cluster.NewIncremental(cluster.DefaultDBSCANConfig())
	if err != nil {
		return err
	}
	add := func(from, to int) {
		for i := from; i < to; i++ {
			for n := 0; n < counts[i]; n++ {
				inc.Add(hashes[i])
			}
		}
	}
	cut := len(hashes) - 512
	add(0, cut)
	if _, err := inc.ReclusterCtx(t.ctx); err != nil {
		return err
	}
	add(cut, len(hashes))
	t.set("cluster.incremental_extend_ms", medianMS(1, func() { _, err = inc.ReclusterCtx(t.ctx) }))
	if err != nil {
		return err
	}

	var all []phash.Hash
	for _, ci := range t.small.eng.Clusters() {
		all = append(all, ci.MedoidHash)
	}
	t.set("annotate.batch_ms", medianMS(20, func() {
		t.small.site.AnnotateBatch(all, pipeline.DefaultConfig().AnnotationThreshold, t.rc.nproc)
	}))
	return nil
}

// --- index -------------------------------------------------------------------

func (t *traced) index() error {
	keys := medoids(t.large)
	queries := t.assocLarge.posts[0]
	radius := pipeline.DefaultConfig().AssociationThreshold
	for _, s := range []index.Strategy{index.BKTree, index.MultiIndex, index.Sharded} {
		idx, err := index.New(s)
		if err != nil {
			return err
		}
		if wb, ok := idx.(index.WorkerBound); ok {
			wb.SetWorkers(0)
		}
		for i, h := range keys {
			idx.Insert(h, int64(i))
		}
		if sealer, ok := idx.(index.Sealer); ok {
			sealer.Seal()
		}
		t.set("index."+string(s)+"_radius_ns", meanNS(len(queries), func(i int) {
			idx.Radius(phash.Hash(queries[i].Hash), radius)
		}))
	}
	return nil
}

// --- pipeline, memes ---------------------------------------------------------

func (t *traced) pipeline() error {
	ctx := t.ctx
	var err error
	build := func(workers int) float64 {
		return medianMS(3, func() { _, err = memes.NewEngine(ctx, t.small.ds, t.small.site, memes.WithWorkers(workers)) })
	}
	w1, wn := build(1), build(0)
	if err != nil {
		return err
	}
	t.set("pipeline.build_w1_ms", w1)
	t.set("pipeline.build_wn_ms", wn)
	t.set("pipeline.build_scaling_eff", w1/(float64(t.rc.nproc)*wn))
	stats := t.small.eng.BuildStats()
	for metric, stage := range map[string]string{
		"pipeline.stage_neighbours_ms": pipeline.StageNeighbours,
		"pipeline.stage_cluster_ms":    pipeline.StageCluster,
		"pipeline.stage_annotate_ms":   pipeline.StageAnnotate,
	} {
		st, ok := stats.Stage(stage)
		t.expect(ok, "BuildStats has no %q stage", stage)
		t.set(metric, float64(st.Duration)/1e6)
	}

	for _, c := range []struct {
		corpus *corpus
		pool   *associatePool
	}{{t.small, t.assocSmall}, {t.large, t.assocLarge}} {
		eng, hashes := c.corpus.eng, t.matches.hashes
		t.set("pipeline.match_"+c.corpus.name+"_ns", meanNS(4*len(hashes), func(i int) {
			if _, _, merr := eng.Match(ctx, hashes[i%len(hashes)]); merr != nil {
				err = merr
			}
		}))
		var out []memes.Association
		t.set("pipeline.associate_"+c.corpus.name+"_us", meanNS(2*len(c.pool.posts), func(i int) {
			if out, err = eng.AssociateAppend(ctx, c.pool.posts[i%len(c.pool.posts)], out[:0]); err != nil {
				return
			}
		})/1e3)
		if err != nil {
			return err
		}
	}

	var snap bytes.Buffer
	t.set("pipeline.save_v2_us", meanNS(20, func(int) {
		snap.Reset()
		if serr := t.small.eng.Save(&snap); serr != nil {
			err = serr
		}
	})/1e3)
	t.set("pipeline.snapshot_v2_bytes", float64(snap.Len()))
	v1 := filepath.Join(t.rc.dir, "small-v1.snap")
	var v1bytes bytes.Buffer
	if err := t.small.eng.SaveVersion(&v1bytes, memes.SnapshotV1); err != nil {
		return err
	}
	if err := os.WriteFile(v1, v1bytes.Bytes(), 0o644); err != nil {
		return err
	}
	for metric, path := range map[string]string{"pipeline.load_v2_us": t.small.snap, "pipeline.load_v1_us": v1} {
		t.set(metric, meanNS(20, func(int) {
			eng, lerr := memes.LoadEngineFile(path, t.small.site)
			if lerr != nil {
				err = lerr
				return
			}
			eng.Close()
		})/1e3)
	}
	if err != nil {
		return err
	}

	// Incremental rebuild: prime on the stream base, add 512 feed posts,
	// time the rebuild that absorbs them.
	inc, err := pipeline.NewIncremental(t.stream.ds, t.stream.site, pipeline.DefaultConfig())
	if err != nil {
		return err
	}
	if _, err := inc.RebuildCtx(ctx, nil); err != nil {
		return err
	}
	inc.AddPosts(t.stream.feed[:512])
	t.set("pipeline.incremental_rebuild_ms", medianMS(1, func() { _, err = inc.RebuildCtx(ctx, nil) }))
	if err != nil {
		return err
	}
	var frame bytes.Buffer
	t.set("pipeline.save_delta_us", meanNS(200, func(i int) {
		frame.Reset()
		if serr := pipeline.SaveDelta(&frame, &pipeline.Delta{Posts: t.feed.posts[i%len(t.feed.posts)]}); serr != nil {
			err = serr
		}
	})/1e3)
	if err != nil {
		return err
	}

	fresh, err := memes.LoadEngine(bytes.NewReader(snap.Bytes()), t.small.site, memes.WithDataset(t.small.ds))
	if err != nil {
		return err
	}
	t.set("pipeline.result_ms", medianMS(1, func() { fresh.Result() }))

	hot := memes.NewHotEngine(t.small.eng)
	t.set("memes.hot_swap_ns", meanNS(100000, func(int) { hot.Swap(t.small.eng) }))
	return nil
}

// --- server: handlers in process ---------------------------------------------

// discard is a decision-log sink that drops every batch.
type discard struct{}

func (discard) Upload(context.Context, []declog.Decision) error { return nil }

// inproc builds a server.Server in process over a corpus's snapshot, with
// the decision log streaming to a file as memeserve runs it, or bare: no
// admission control, no deadline, no decision log.
func (t *traced) inproc(c *corpus, bare, ingest bool) (*server.Server, func(), error) {
	cfg := server.Config{Loader: func() (*memes.Engine, error) {
		return memes.LoadEngineFile(c.snap, c.site, memes.WithDataset(c.ds))
	}}
	closeLog := func() {}
	if bare {
		cfg.MaxInFlight, cfg.RequestTimeout = -1, -1
	} else {
		f, err := os.CreateTemp(t.rc.dir, "inproc-decisions-*.ndjson")
		if err != nil {
			return nil, nil, err
		}
		f.Close()
		sink, err := declog.NewFileSink(f.Name())
		if err != nil {
			return nil, nil, err
		}
		logger, err := declog.New(declog.Config{Sink: sink})
		if err != nil {
			return nil, nil, err
		}
		cfg.DecisionLog = logger
		closeLog = func() { logger.Close(); sink.Close() }
	}
	if ingest {
		dir, err := os.MkdirTemp(t.rc.dir, "inproc-deltas-")
		if err != nil {
			return nil, nil, err
		}
		cfg.Ingest = func(hot *memes.HotEngine) (*memes.Ingestor, error) {
			return memes.NewIngestor(hot, c.ds, c.site, memes.IngestConfig{Threshold: 256, DeltaDir: dir})
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		closeLog()
		return nil, nil, err
	}
	return srv, func() { srv.Close(); closeLog() }, nil
}

// serve pushes one request through a handler and reports whether it was
// answered 200.
func serve(h http.Handler, method, path string, body []byte) bool {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code == http.StatusOK
}

// handlerMedianUS replays bodies through a handler, one call per body, and
// returns the median call in microseconds; when o is set the first
// onionRequests calls become the onion's handler layer.
func (t *traced) handlerMedianUS(h http.Handler, path string, bodies [][]byte, o *onion, layer int) float64 {
	var walls []float64
	for i, body := range bodies {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		t.expect(rec.Code == http.StatusOK, "%s in process: status %d", path, rec.Code)
		walls = append(walls, float64(d)/1e3)
		if o != nil && i < onionRequests {
			o.add(layer, start, d)
		}
	}
	return loadgen.Median(walls)
}

func (t *traced) handlers() error {
	t.onions["match"] = newOnion("match", "socket", "handler", "engine", "index")
	t.onions["associate_small"] = newOnion("associate_small", "socket", "handler", "engine", "index")
	t.onions["associate_large"] = newOnion("associate_large", "socket", "handler", "engine", "index")
	t.onions["ingest"] = newOnion("ingest", "socket", "handler", "engine", "journal")

	full, closeFull, err := t.inproc(t.small, false, false)
	if err != nil {
		return err
	}
	defer closeFull()
	bare, closeBare, err := t.inproc(t.small, true, false)
	if err != nil {
		return err
	}
	defer closeBare()
	h := full.Handler()
	// One untimed pass warms pools and the page cache of the mapping.
	t.handlerMedianUS(h, "/v1/match", t.matches.body[:256], nil, 0)
	withAll := t.handlerMedianUS(h, "/v1/match", t.matches.body, t.onions["match"], 1)
	without := t.handlerMedianUS(bare.Handler(), "/v1/match", t.matches.body, nil, 0)
	t.set("server.handler_match_us", withAll)
	t.set("server.handler_match_bare_us", without)
	t.set("server.middleware_us", withAll-without)
	t.set("server.allocs_per_match", mallocs(len(t.matches.body), func(i int) {
		serve(h, "POST", "/v1/match", t.matches.body[i])
	}))

	twice := append(append([][]byte(nil), t.assocSmall.body...), t.assocSmall.body...)
	t.set("server.handler_associate_small_us", t.handlerMedianUS(h, "/v1/associate", twice, t.onions["associate_small"], 1))
	t.set("server.allocs_per_associate", mallocs(len(t.assocSmall.body), func(i int) {
		serve(h, "POST", "/v1/associate", t.assocSmall.body[i])
	}))
	t.set("metrics.scrape_us", meanNS(50, func(int) {
		t.expect(serve(h, "GET", "/v1/metrics", nil), "GET /v1/metrics in process failed")
	})/1e3)

	large, closeLarge, err := t.inproc(t.large, false, false)
	if err != nil {
		return err
	}
	defer closeLarge()
	twice = append(append([][]byte(nil), t.assocLarge.body...), t.assocLarge.body...)
	t.set("server.handler_associate_large_us", t.handlerMedianUS(large.Handler(), "/v1/associate", twice, t.onions["associate_large"], 1))

	ing, closeIng, err := t.inproc(t.stream, false, true)
	if err != nil {
		return err
	}
	defer closeIng()
	t.set("server.handler_ingest_us", t.handlerMedianUS(ing.Handler(), "/v1/ingest", t.feed.body[:onionRequests], t.onions["ingest"], 1))
	return nil
}

// smallParts times the pieces a handler is made of — JSON, decision log,
// histogram — and the inner layers of the three query onions.
func (t *traced) smallParts() error {
	var err error
	t.set("server.json_decode_match_ns", meanNS(4*len(t.matches.body), func(i int) {
		var req struct {
			Hash json.RawMessage `json:"hash"`
		}
		if jerr := json.Unmarshal(t.matches.body[i%len(t.matches.body)], &req); jerr != nil {
			err = jerr
		}
	}))
	t.set("server.json_decode_posts_us", meanNS(len(t.assocSmall.body), func(i int) {
		var req postsBody
		if jerr := json.Unmarshal(t.assocSmall.body[i], &req); jerr != nil {
			err = jerr
		}
	})/1e3)
	if err != nil {
		return err
	}
	// An associate answer of representative size: the oracle's associations
	// for the first body, in the wire shape.
	var answer associateAnswer
	answer.Posts, answer.Matched, answer.Generation = associateBatch, len(t.assocSmall.want[0]), 1
	for _, a := range t.assocSmall.want[0] {
		answer.Associations = append(answer.Associations,
			associationAnswer{a.PostIndex, a.ClusterID, a.Distance, t.assocSmall.names[a.ClusterID]})
	}
	t.set("server.json_encode_assoc_us", meanNS(200, func(int) {
		if _, jerr := json.Marshal(&answer); jerr != nil {
			err = jerr
		}
	})/1e3)
	if err != nil {
		return err
	}

	// The buffer is sized so that nothing is dropped: the drop path is
	// cheaper than the append this measures.
	logger, err := declog.New(declog.Config{Sink: discard{}, BufferSize: 1 << 18})
	if err != nil {
		return err
	}
	decision := declog.Decision{Endpoint: "match", Generation: 1, Post: t.small.ds.Posts[0], ClusterID: -1, Distance: -1}
	t.set("declog.log_ns", meanNS(100000, func(int) { logger.Log(decision) }))
	logger.Close()
	hist := metrics.NewHistogram()
	t.set("metrics.observe_ns", meanNS(1000000, func(int) { hist.Observe(0.00003) }))

	// Inner layers of the query onions: the engine call, then the index
	// probe alone on a tree over the same annotated medoids.
	radius := pipeline.DefaultConfig().AssociationThreshold
	smallTree, largeTree := medoidTree(t.small), medoidTree(t.large)
	o := t.onions["match"]
	for i := 0; i < onionRequests; i++ {
		h := t.matches.hashes[i]
		o.time(2, func() { _, _, err = t.small.eng.Match(t.ctx, h) })
		o.time(3, func() { smallTree.Radius(h, radius) })
	}
	// The handler answers an association with Engine.Associate, which fans
	// the batch out over the worker pool; the index layer probes the tree in
	// the same chunks on the same pool, so the two walls compare.
	for _, c := range []struct {
		o    *onion
		eng  *memes.Engine
		pool *associatePool
		bk   *phash.BKTree
	}{{t.onions["associate_small"], t.small.eng, t.assocSmall, smallTree}, {t.onions["associate_large"], t.large.eng, t.assocLarge, largeTree}} {
		for i := 0; i < onionRequests; i++ {
			posts := c.pool.posts[i%len(c.pool.posts)]
			c.o.time(2, func() { _, err = c.eng.Associate(t.ctx, posts) })
			c.o.time(3, func() {
				_, err = parallel.MapChunksCtx(t.ctx, len(posts), 0, func(lo, hi int) []int {
					var scratch phash.Scratch
					for p := lo; p < hi; p++ {
						c.bk.RadiusScratch(phash.Hash(posts[p].Hash), radius, &scratch)
					}
					return nil
				})
			})
		}
	}
	return err
}

// --- ingest ------------------------------------------------------------------

func (t *traced) ingest() error {
	var replayDir string
	for _, c := range []struct {
		metric  string
		journal bool
	}{{"ingest.ingest_8_us", true}, {"ingest.ingest_8_nojournal_us", false}} {
		cfg := memes.IngestConfig{Threshold: 256}
		if c.journal {
			dir, err := os.MkdirTemp(t.rc.dir, "ingest-deltas-")
			if err != nil {
				return err
			}
			cfg.DeltaDir, replayDir = dir, dir
		}
		g, hot, err := t.ingestor(cfg)
		if err != nil {
			return err
		}
		var walls []float64
		for i := 0; i < onionRequests; i++ {
			start := time.Now()
			_, err := g.Ingest(t.ctx, t.feed.posts[i])
			d := time.Since(start)
			if err != nil {
				return err
			}
			walls = append(walls, float64(d)/1e3)
			if c.journal {
				t.onions["ingest"].add(2, start, d)
			}
		}
		t.set(c.metric, loadgen.Median(walls))
		if c.journal {
			// 512 pooled posts hold fewer than 256 unmatched fringe images,
			// so no background re-cluster has run: this one absorbs them all.
			t.set("ingest.recluster_ms", medianMS(1, func() { err = g.Recluster(t.ctx) }))
			if err != nil {
				return err
			}
			t.expect(hot.Generation() >= 2, "ingest: generation %d after a re-cluster", hot.Generation())
		}
		if err := g.Close(); err != nil {
			return err
		}
	}

	// A restart: a fresh ingestor over the same journal replays it.
	g, _, err := t.ingestor(memes.IngestConfig{Threshold: 256, DeltaDir: replayDir})
	if err != nil {
		return err
	}
	replayed := 0
	t.set("ingest.replay_ms", medianMS(1, func() { replayed, err = g.Replay(t.ctx, 0) }))
	if err != nil {
		return err
	}
	t.expect(replayed == onionRequests*ingestBatch, "ingest: replayed %d posts of %d journaled", replayed, onionRequests*ingestBatch)
	if err := g.Close(); err != nil {
		return err
	}

	// The innermost layer of the ingest onion: one delta frame appended to a
	// journal file and synced, as the ingestor does per batch.
	f, err := os.CreateTemp(t.rc.dir, "journal-*.dlt")
	if err != nil {
		return err
	}
	defer f.Close()
	for i := 0; i < onionRequests; i++ {
		t.onions["ingest"].time(3, func() {
			if err = pipeline.SaveDelta(f, &pipeline.Delta{FromSeq: uint64(i * ingestBatch), Posts: t.feed.posts[i]}); err == nil {
				err = f.Sync()
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ingestor wires an Ingestor onto a fresh engine loaded from the stream
// snapshot.
func (t *traced) ingestor(cfg memes.IngestConfig) (*memes.Ingestor, *memes.HotEngine, error) {
	eng, err := memes.LoadEngineFile(t.stream.snap, t.stream.site, memes.WithDataset(t.stream.ds))
	if err != nil {
		return nil, nil, err
	}
	hot := memes.NewHotEngine(eng)
	g, err := memes.NewIngestor(hot, t.stream.ds, t.stream.site, cfg)
	return g, hot, err
}

// --- hawkes, analysis --------------------------------------------------------

func (t *traced) analysis() error {
	// One meme's worth of events from the corpus's own ground-truth dynamics.
	model := hawkes.NewModel(5, 1.0)
	copy(model.Mu, []float64{1.0, 0.26, 0.44, 0.016, 0.06})
	for i, row := range t.small.ds.GroundTruthInfluence {
		copy(model.W[i], row)
	}
	const horizon = 200
	events, err := model.Simulate(rand.New(rand.NewSource(1)), horizon)
	if err != nil {
		return err
	}
	t.set("hawkes.fit_ms", medianMS(3, func() { _, err = hawkes.Fit(events, hawkes.DefaultFitConfig(5, horizon)) }))
	if err != nil {
		return err
	}

	rep, err := memes.NewReport(t.small.eng.Result())
	if err != nil {
		return err
	}
	timed := func(render func() (string, error)) float64 {
		return medianMS(1, func() {
			if _, rerr := render(); rerr != nil {
				err = rerr
			}
		})
	}
	influence := timed(rep.RenderInfluenceAll)
	groups := timed(rep.RenderInfluenceRacist) + timed(rep.RenderInfluencePolitical)
	table8 := timed(rep.RenderTable8)
	figure19 := timed(rep.RenderFigure19)
	all := medianMS(1, func() {
		if _, rerr := rep.Sections(); rerr != nil {
			err = rerr
		}
	})
	t.set("analysis.influence_ms", influence)
	t.set("analysis.influence_groups_ms", groups)
	t.set("analysis.table8_ms", table8)
	t.set("analysis.figure19_ms", figure19)
	t.set("analysis.sections_other_ms", all-influence-groups-table8-figure19)
	return err
}

// --- memeserve: processes and sockets ----------------------------------------

// socketReplay sends wire requests one at a time over one connection, checks
// each answer, fills the onion's socket layer with the first onionRequests
// of them, and returns every latency in nanoseconds.
func (t *traced) socketReplay(addr string, wire [][]byte, check func(int, int, []byte) bool, o *onion) ([]float64, error) {
	c, err := loadgen.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var walls []float64
	for i, w := range wire {
		start := time.Now()
		status, body, err := c.Do(w, start.Add(30*time.Second))
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		t.r.attempted++
		if status != 200 || !check(i, status, body) {
			t.r.failed++
			t.r.problemf("%s replay: request %d answered %d or wrongly", o.kind, i, status)
		}
		walls = append(walls, float64(d))
		if i < onionRequests {
			o.add(0, start, d)
		}
	}
	return walls, nil
}

func (t *traced) processes() error {
	bin, err := buildServer(t.rc.root, filepath.Join(t.rc.out, "bin"))
	if err != nil {
		return err
	}
	boot := func(c *corpus, extra ...string) (*child, float64, error) {
		args := append([]string{"-load", c.snap, "-in", c.dir, "-decision-log", filepath.Join(t.rc.dir, c.name+"-decisions.ndjson")}, extra...)
		start := time.Now()
		srv, err := startServer(bin, filepath.Join(t.rc.dir, c.name+"-memeserve.log"), args...)
		return srv, float64(time.Since(start)) / 1e6, err
	}

	// small: lookups and small associations, one connection, one at a time.
	srv, bootMS, err := boot(t.small)
	if err != nil {
		return err
	}
	t.set("memeserve.boot_small_ms", bootMS)
	walls, err := t.socketReplay(srv.addr, t.matches.wire, t.matches.check, t.onions["match"])
	if err != nil {
		return err
	}
	env := &serveEnv{srv: srv}
	view, err := env.view()
	if err != nil {
		return err
	}
	sort.Float64s(walls)
	clientMean := 0.0
	for _, w := range walls {
		clientMean += w / float64(len(walls))
	}
	// The server's histogram starts at 500µs, so every lookup lands in its
	// first bucket and no percentile can be read from it; the mean can.
	serverMean := view.sum["match"] / view.count["match"] * 1e9
	t.set("server.hist_mean_match_us", serverMean/1e3)
	t.set("server.client_minus_server_mean_us", (clientMean-serverMean)/1e3)
	t.set("memeserve.transport_match_us", walls[len(walls)/2]/1e3-t.r.metrics["server.handler_match_us"])
	if _, err := t.socketReplay(srv.addr, t.assocSmall.wire, t.assocSmall.check, t.onions["associate_small"]); err != nil {
		return err
	}
	// A second of paced lookups: how late the generator's own clock runs.
	paced, err := loadgen.Run(srv.addr, pooledStreams("match", 1, mixedMatchRate, t.matches.wire, t.matches.check, t.rng), 0, time.Second, nil)
	if err != nil {
		return err
	}
	lags := append([]int64(nil), paced[0].Lag...)
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	t.set("loadgen.sched_lag_p99_us", float64(loadgen.Percentile(lags, 0.99))/1e3)
	if _, err := srv.stop(); err != nil {
		return err
	}

	// large: boot cost and the large associations.
	if srv, bootMS, err = boot(t.large); err != nil {
		return err
	}
	t.set("memeserve.boot_large_ms", bootMS)
	if _, err := t.socketReplay(srv.addr, t.assocLarge.wire, t.assocLarge.check, t.onions["associate_large"]); err != nil {
		return err
	}
	if _, err := srv.stop(); err != nil {
		return err
	}

	// stream: ingest batches, then a drain and a restart on the journal.
	ingestArgs := []string{"-ingest-threshold", "256", "-delta-dir", filepath.Join(t.rc.dir, "stream-deltas")}
	if srv, _, err = boot(t.stream, ingestArgs...); err != nil {
		return err
	}
	if _, err := t.socketReplay(srv.addr, t.feed.wire[:onionRequests], t.feed.check, t.onions["ingest"]); err != nil {
		return err
	}
	drain, err := srv.stop()
	if err != nil {
		return err
	}
	t.set("memeserve.drain_ms", float64(drain)/1e6)
	if srv, bootMS, err = boot(t.stream, ingestArgs...); err != nil {
		return err
	}
	t.set("memeserve.replay_boot_ms", bootMS)
	var st server.StatsDoc
	if err := getJSON(srv.addr, "/v1/statsz", &st); err != nil {
		return err
	}
	t.expect(st.Ingest.Seq == onionRequests*ingestBatch, "restart: journal replays to seq %d, %d posts were acknowledged", st.Ingest.Seq, onionRequests*ingestBatch)
	_, err = srv.stop()
	return err
}
