// Command memeserve serves a built engine snapshot over HTTP: the
// production front of the build-once / query-many split. memepipeline -save
// (or Engine.Save) produces the MEMESNAP artifact on a build box; memeserve
// loads it — skipping Steps 2-5 entirely — and answers Step 6 association
// traffic from the resident engine, the regime the paper operates in when
// it runs association over 160M images against a fixed set of annotated
// clusters.
//
// Usage:
//
//	memeserve -load engine.snap -in ./corpus [-addr :8080] [-index bktree|multiindex|sharded]
//	          [-workers N] [-drain 10s]
//	          [-ingest-threshold N] [-delta-dir ./deltas] [-compact-after N]
//	          [-read-header-timeout 5s] [-read-timeout 60s] [-write-timeout 60s]
//	          [-idle-timeout 120s] [-request-timeout 30s] [-max-inflight 1024]
//	          [-decision-log decisions.ndjson] [-decision-flush 1s]
//	          [-decision-buffer 4096] [-metrics=true]
//
// -in names the corpus directory (written by memegen) whose annotation site
// the snapshot's entries are resolved against — the same site the build
// used.
//
// The server hot-reloads: SIGHUP or POST /v1/admin/reload re-reads the
// snapshot file and atomically swaps the fresh engine in with zero dropped
// requests, so a rebuilt artifact can be rolled out by overwriting the file
// and signalling the process. SIGTERM/SIGINT drain connections gracefully
// (bounded by -drain) before exiting.
//
// -ingest-threshold N (N > 0) enables streaming ingest: POST /v1/ingest
// absorbs new posts at runtime, re-clustering incrementally once N pending
// posts accumulate and hot-swapping the fresh engine in. The ingestor then
// owns the served generation: a reload re-clusters the posts still pending
// and publishes that, and never re-reads the snapshot file. With -delta-dir,
// accepted batches are journaled as MEMEDELT delta snapshots and compacted
// into base snapshots in the background; on boot, memeserve prefers the
// newest compacted base over -load and replays the journal tail, so
// ingested posts survive a restart.
//
// Serving is hardened by default: per-request deadlines, panic recovery,
// and bounded in-flight admission control that sheds excess load with 503 +
// Retry-After. GET /v1/readyz reports readiness (engine resident and journal
// writable) as distinct from /v1/healthz liveness; a degraded journal flips
// the node read-only — ingests 503, queries keep serving.
//
// The resident corpus dwarfs what the serve path allocates, so left to the
// pacer the process would sit on tens of MB of request garbage between
// collections; a background loop collects and returns the pages when a quiet
// two seconds has left a few MB behind (see collectWhenQuiet), at no more
// than 2% of a core.
//
// -decision-log FILE streams every served association and match decision to
// an NDJSON file in batched, bounded-buffer fashion (OPA decision-log style:
// the serve path never blocks on the sink; overflow is dropped and counted).
// The file replays through memereport -replay to regenerate the paper's
// tables from real served traffic. -decision-flush and -decision-buffer tune
// the flush interval and buffer capacity; -metrics=false hides GET
// /v1/metrics on replicas that must not be scraped.
//
// API: POST /v1/associate, /v1/match, /v1/match/image, /v1/ingest,
// /v1/influence; GET /v1/healthz, /v1/readyz, /v1/statsz, /v1/metrics,
// /v1/report, /v1/clusters; POST /v1/admin/reload — see internal/server.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/declog"
	"github.com/memes-pipeline/memes/internal/faults"
	"github.com/memes-pipeline/memes/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	load := flag.String("load", "", "engine snapshot to serve (written by memepipeline -save); required")
	in := flag.String("in", "corpus", "corpus directory providing the annotation site the snapshot was built against")
	indexStrategy := flag.String("index", "", "medoid index strategy (empty = multiindex, the default): "+strategyList())
	workers := flag.Int("workers", 0, "worker pool bound for query fan-out (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 10*time.Second, "connection-draining timeout on SIGTERM")
	ingestThreshold := flag.Int("ingest-threshold", 0, "pending posts that trigger an incremental re-cluster; 0 disables POST /v1/ingest")
	deltaDir := flag.String("delta-dir", "", "delta-journal directory for ingest persistence (empty = in-memory only)")
	compactAfter := flag.Int("compact-after", 0, "sealed delta segments that trigger background compaction into a base snapshot (0 = default)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server.ReadHeaderTimeout: slowloris guard on request headers")
	readTimeout := flag.Duration("read-timeout", 60*time.Second, "http.Server.ReadTimeout: whole-request read deadline")
	writeTimeout := flag.Duration("write-timeout", 60*time.Second, "http.Server.WriteTimeout: whole-response write deadline")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "http.Server.IdleTimeout: keep-alive connection reaper")
	requestTimeout := flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request handler deadline (queries and ingest); negative disables")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "max concurrently served requests before shedding with 503; negative disables")
	decisionLog := flag.String("decision-log", "", "NDJSON file receiving the decision-log stream; empty disables capture")
	decisionFlush := flag.Duration("decision-flush", time.Second, "decision-log flush interval")
	decisionBuffer := flag.Int("decision-buffer", 0, "decision-log buffer capacity; overflow is dropped and counted (0 = default)")
	metricsOn := flag.Bool("metrics", true, "expose GET /v1/metrics (Prometheus text format)")
	faultSpec := flag.String("faults", "", "fault-injection spec (chaos builds only; see internal/faults)")
	flag.Parse()
	if *load == "" {
		log.Fatal("memeserve: -load is required (build a snapshot with memepipeline -save)")
	}
	// In a release binary Arm rejects any non-empty spec, so arming faults
	// against a build that compiled them out fails loudly instead of
	// silently testing nothing.
	if err := faults.Arm(*faultSpec); err != nil {
		log.Fatalf("memeserve: %v", err)
	}

	// The annotation site is rebuilt once from the corpus and shared by
	// every (re)load: snapshot entries are resolved by name against it, so
	// serving the wrong corpus's site fails loudly at load time.
	ds, err := memes.LoadDataset(*in)
	if err != nil {
		log.Fatalf("memeserve: loading corpus: %v", err)
	}
	site, err := ds.Site(true)
	if err != nil {
		log.Fatalf("memeserve: building annotation site: %v", err)
	}

	// With a delta journal on disk, the newest compacted base snapshot is a
	// later state of the same corpus than -load: boot from it and replay
	// only the journal tail beyond its fold point.
	snapPath := *load
	var baseSeq uint64
	if *ingestThreshold > 0 && *deltaDir != "" {
		path, seq, ok, err := memes.LatestDeltaBase(*deltaDir)
		if err != nil {
			log.Fatalf("memeserve: scanning delta dir: %v", err)
		}
		if ok {
			snapPath, baseSeq = path, seq
			log.Printf("memeserve: booting from compacted base %s (seq %d)", path, seq)
		}
	}

	// LoadEngineFile reads the snapshot whole into memory, so a rebuilt file
	// written over the old one changes nothing until the next reload.
	// WithDataset binds the serving corpus to the engine so the analysis
	// endpoints (/v1/influence, /v1/report) can materialise the full
	// pipeline result; without it they would answer 503/analysis_disabled.
	loader := func() (*memes.Engine, error) {
		opts := []memes.Option{memes.WithWorkers(*workers), memes.WithDataset(ds)}
		if *indexStrategy != "" {
			opts = append(opts, memes.WithIndex(memes.IndexStrategy(*indexStrategy)))
		}
		return memes.LoadEngineFile(snapPath, site, opts...)
	}

	cfg := server.Config{
		Loader:         loader,
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *requestTimeout,
		DisableMetrics: !*metricsOn,
	}

	// The decision log outlives the server: it is closed (final flush) only
	// after the http.Server has drained, so every captured decision of every
	// completed request reaches the sink.
	var decSink *declog.FileSink
	var decLogger *declog.Logger
	if *decisionLog != "" {
		var err error
		decSink, err = declog.NewFileSink(*decisionLog)
		if err != nil {
			log.Fatalf("memeserve: opening decision log: %v", err)
		}
		decLogger, err = declog.New(declog.Config{
			BufferSize:    *decisionBuffer,
			FlushInterval: *decisionFlush,
			Sink:          decSink,
		})
		if err != nil {
			log.Fatalf("memeserve: decision log: %v", err)
		}
		cfg.DecisionLog = decLogger
		log.Printf("memeserve: decision log streaming to %s (flush %v)", *decisionLog, *decisionFlush)
	}
	if *ingestThreshold > 0 {
		cfg.Ingest = func(hot *memes.HotEngine) (*memes.Ingestor, error) {
			return memes.NewIngestor(hot, ds, site, memes.IngestConfig{
				Threshold:    *ingestThreshold,
				DeltaDir:     *deltaDir,
				CompactAfter: *compactAfter,
			})
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("memeserve: %v", err)
	}
	defer srv.Close()
	if g := srv.Ingestor(); g != nil {
		n, err := g.Replay(context.Background(), baseSeq)
		if err != nil {
			log.Fatalf("memeserve: replaying delta journal: %v", err)
		}
		if *deltaDir != "" {
			log.Printf("memeserve: streaming ingest enabled (threshold %d): replayed %d journaled posts from %s",
				*ingestThreshold, n, *deltaDir)
		} else {
			log.Printf("memeserve: streaming ingest enabled (threshold %d, journal disabled)", *ingestThreshold)
		}
	}
	eng := srv.Engine()
	log.Printf("memeserve: loaded %s (%d clusters) — serving on %s", snapPath, len(eng.Clusters()), *addr)
	// Boot leaves garbage behind (the corpus slice's outgrown copies, the
	// replayed journal), and the serve path allocates too little to trigger
	// the collection that would let it go: without this it sits in the
	// resident set for as long as the traffic stays on the pooled paths.
	debug.FreeOSMemory()

	// All four transport timeouts are set so no client behaviour — slow
	// headers, trickled bodies, abandoned keep-alives — can pin a connection
	// (and its goroutine) forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// SIGHUP: hot-swap a freshly built snapshot under live traffic, or, with
	// ingest on, publish the posts still pending.
	served := "reloaded " + snapPath
	if srv.Ingestor() != nil {
		served = "published the ingested corpus"
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			st, err := srv.Reload()
			if err != nil {
				log.Printf("memeserve: SIGHUP reload failed, serving generation %d: %v", srv.Generation(), err)
				continue
			}
			log.Printf("memeserve: %s: generation %d, %d clusters in %.1fms",
				served, st.Generation, st.Clusters, st.LoadMS)
		}
	}()

	// SIGTERM/SIGINT: stop accepting, drain in-flight connections, exit 0.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	go collectWhenQuiet(ctx)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("memeserve: serve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("memeserve: shutting down (draining up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Draining failed — force-close the remaining connections and exit
		// non-zero: requests were dropped, and the exit code must say so.
		httpSrv.Close()
		closeDecisionLog(decLogger, decSink)
		log.Fatalf("memeserve: drain did not complete, connections force-closed: %v", err)
	}
	closeDecisionLog(decLogger, decSink)
	log.Print("memeserve: drained, bye")
}

// closeDecisionLog flushes and closes the decision stream after the server
// has stopped serving; nil-safe for the disabled case.
func closeDecisionLog(l *declog.Logger, s *declog.FileSink) {
	if l != nil {
		l.Close()
	}
	if s != nil {
		if err := s.Close(); err != nil {
			log.Printf("memeserve: closing decision log: %v", err)
		}
	}
}

// collectWhenQuiet bounds the garbage a server with a large resident corpus
// and a low allocation rate sits on. The pacer starts a collection once the
// heap has doubled; with tens of MB of corpus live and a serve path whose
// only garbage is net/http's few KB per request, that is minutes of traffic
// away, and until then every request's garbage stays in the resident set —
// the faster the server answers, the faster it grows. So when a whole period
// passes without a collection while a few MB of garbage have piled up, run
// one and hand the freed pages back to the OS. The period is at least two
// seconds and at least fifty times what the last forced collection took,
// which caps the cost at 2% of one core for any heap size; a server
// allocating fast enough for the pacer to keep up never sees a forced
// collection, and an idle one has no garbage to collect.
func collectWhenQuiet(ctx context.Context) {
	const (
		minPeriod = 2 * time.Second
		slack     = 4 << 20 // bytes of garbage not worth a collection
	)
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	period, seen := minPeriod, uint64(0)
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(period):
		}
		metrics.Read(samples)
		cycles, live, objects := samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64()
		if cycles == seen && objects > live+slack {
			start := time.Now()
			debug.FreeOSMemory()
			period = max(minPeriod, 50*time.Since(start))
			cycles++ // the one just forced
		}
		seen = cycles
	}
}

// strategyList renders the registered index strategies for the -index flag
// help text.
func strategyList() string {
	var names []string
	for _, s := range memes.IndexStrategies() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}
