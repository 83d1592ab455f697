// Package server is the production HTTP serving layer over a resident
// memes.Engine: the subsystem that takes the paper's operating regime — a
// fixed artifact of annotated clusters answering association queries over
// community traffic (§7 runs Step 6 over 160M images) — onto the network.
//
// A Server loads its engine through a caller-supplied loader (typically
// memes.LoadEngine over a MEMESNAP snapshot), serves goroutine-safe queries
// from it, and hot-swaps a freshly built snapshot in with zero dropped
// requests: every request pins one engine generation from a memes.HotEngine
// for its whole lifetime, so Reload (wired to POST /v1/admin/reload and, in
// cmd/memeserve, SIGHUP) replaces the artifact atomically while in-flight
// requests finish on the generation they started with.
//
// The JSON API:
//
//	POST /v1/associate     {"posts":[…]}            batch Step 6 association
//	POST /v1/match         {"hash":"…"}             single-hash lookup
//	POST /v1/match/image   raw image bytes          pHash (Step 1) + lookup
//	POST /v1/influence     {"group":"…"}            live §5 Hawkes influence matrices
//	GET  /v1/report                                 full memereport document over the live engine
//	POST /v1/ingest        {"posts":[…]}            absorb new posts (streaming ingest)
//	GET  /v1/healthz                                liveness + resident artifact shape
//	GET  /v1/readyz                                 readiness (engine resident ∧ journal writable)
//	GET  /v1/statsz                                 request/build/ingest/overload counters
//	GET  /v1/metrics                                Prometheus text-format exposition
//	GET  /v1/clusters                               the annotated-cluster artifact
//	POST /v1/admin/reload                           hot-swap a fresh snapshot
//
// Request/response shapes live in wire.go — the de-facto API spec. A JSON
// body is read whole and must be one value: trailing bytes are a 400, a body
// over Config.MaxBodyBytes a 413 body_too_large. The {"posts":[…]} bodies and
// the associate response go through the hand-written Post codec (codec.go),
// which declines to encoding/json for anything outside the canonical shape.
// Every served association and match decision can additionally be streamed
// to a decision log (Config.DecisionLog, internal/declog) for offline replay
// through cmd/memereport.
//
// A /v1/match lookup is answered on its own request goroutine with one
// Engine.Match call; batch economics belong to /v1/associate, whose body
// carries a whole batch of posts.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	_ "image/gif" // register the stdlib decoders for /v1/match/image
	_ "image/jpeg"
	_ "image/png"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/cli"
	"github.com/memes-pipeline/memes/internal/declog"
	"github.com/memes-pipeline/memes/internal/phash"
)

// DefaultMaxBodyBytes bounds request bodies (associate batches, images).
const DefaultMaxBodyBytes = 32 << 20

// DefaultMaxInFlight bounds concurrently admitted requests; excess load is
// shed with 503 + Retry-After instead of queueing without bound.
const DefaultMaxInFlight = 1024

// DefaultRequestTimeout is the per-request deadline the serving middleware
// applies to query and ingest handlers.
const DefaultRequestTimeout = 30 * time.Second

// Config configures New.
type Config struct {
	// Loader produces the serving engine; it is called once by New and
	// again on every Reload, so it must be safe to call repeatedly
	// (typically: reopen the snapshot file and memes.LoadEngine it).
	Loader func() (*memes.Engine, error)
	// MaxBodyBytes bounds request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Ingest, when set, enables the streaming ingest path: it receives the
	// server's hot engine handle and returns the Ingestor POST /v1/ingest
	// feeds (typically memes.NewIngestor over the serving corpus). Nil
	// disables the endpoint (503).
	Ingest func(*memes.HotEngine) (*memes.Ingestor, error)
	// MaxInFlight bounds concurrently admitted requests (health and stats
	// endpoints are exempt); 0 means DefaultMaxInFlight, negative disables
	// admission control.
	MaxInFlight int
	// RequestTimeout is the deadline applied to each query/ingest request's
	// context; 0 means DefaultRequestTimeout, negative disables it.
	RequestTimeout time.Duration
	// DecisionLog, when set, receives one declog.Decision per served
	// association and match lookup — the replayable traffic stream. The
	// caller owns the logger's lifecycle (the server never closes it; close
	// it after the http.Server has drained).
	DecisionLog *declog.Logger
	// DisableMetrics unregisters GET /v1/metrics (the latency histograms
	// still record; only the scrape endpoint disappears).
	DisableMetrics bool
}

// Server serves a resident engine over HTTP. Construct with New, expose
// with Handler, hot-swap with Reload, stop with Close.
type Server struct {
	hot      *memes.HotEngine
	loader   func() (*memes.Engine, error)
	ingestor *memes.Ingestor // nil when ingest is disabled
	stats    counters
	started  time.Time
	loadedAt atomic.Value // time.Time of the last successful (re)load
	reloadMu sync.Mutex   // serialises Reload; queries never take it
	maxBody  int64

	sem        chan struct{} // admission slots; nil disables admission control
	reqTimeout time.Duration // per-request deadline; <= 0 disables
	closed     atomic.Bool   // Close ran; readiness is permanently false

	declog    *declog.Logger // decision stream; nil disables capture
	obs       observability  // per-endpoint latency histograms for /v1/metrics
	noMetrics bool           // GET /v1/metrics unregistered

	reportMu  sync.Mutex // guards the per-generation report cache
	reportGen uint64
	reportDoc *reportResponse
}

// New calls cfg.Loader once and returns a Server serving the result.
func New(cfg Config) (*Server, error) {
	if cfg.Loader == nil {
		return nil, errors.New("server: Config.Loader is required")
	}
	eng, err := cfg.Loader()
	if err != nil {
		return nil, fmt.Errorf("server: initial engine load: %w", err)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	reqTimeout := cfg.RequestTimeout
	if reqTimeout == 0 {
		reqTimeout = DefaultRequestTimeout
	}
	s := &Server{
		hot:        memes.NewHotEngine(eng),
		loader:     cfg.Loader,
		started:    time.Now(),
		maxBody:    maxBody,
		reqTimeout: reqTimeout,
		declog:     cfg.DecisionLog,
		noMetrics:  cfg.DisableMetrics,
	}
	s.obs.init()
	if maxInFlight > 0 {
		s.sem = make(chan struct{}, maxInFlight)
	}
	s.loadedAt.Store(time.Now())
	if cfg.Ingest != nil {
		ing, err := cfg.Ingest(s.hot)
		if err != nil {
			return nil, fmt.Errorf("server: ingest setup: %w", err)
		}
		s.ingestor = ing
	}
	return s, nil
}

// Ingestor returns the streaming ingest handle, or nil when ingest is
// disabled. Callers use it for startup journal replay (Replay) and for
// direct library-level ingestion.
func (s *Server) Ingestor() *memes.Ingestor { return s.ingestor }

// Engine pins the currently served engine generation.
func (s *Server) Engine() *memes.Engine { return s.hot.Engine() }

// Generation returns the hot-swap generation (1 after New, +1 per Reload).
func (s *Server) Generation() uint64 { return s.hot.Generation() }

// Reload runs the loader and atomically swaps the fresh engine in. Requests
// in flight finish on the generation they pinned; no request is dropped or
// blocked. Reloads are serialised; a failed load leaves the old engine
// serving.
func (s *Server) Reload() (ReloadStatus, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	eng, err := s.loader()
	if err != nil {
		return ReloadStatus{}, fmt.Errorf("server: reload: %w", err)
	}
	s.hot.Swap(eng)
	s.loadedAt.Store(time.Now())
	s.stats.reloads.Add(1)
	d := time.Since(start)
	return ReloadStatus{
		Generation: s.hot.Generation(),
		Clusters:   len(eng.Clusters()),
		Duration:   d,
		LoadMS:     float64(d) / float64(time.Millisecond),
	}, nil
}

// Close stops the ingestor (waiting out any in-flight re-cluster and
// sealing the journal) and marks the server not ready. The Server must not
// serve requests after Close; shut the http.Server down first (connection
// draining), then Close. Idempotent: only the first call tears down.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.ingestor != nil {
		s.ingestor.Close()
	}
}

// Handler returns the server's HTTP handler. Method routing relies on the
// stdlib mux, so wrong-method requests get 405 with an Allow header. The mux
// sits behind the hardening middleware — innermost to outermost: per-request
// deadline, bounded-in-flight admission control, panic recovery — so an
// overloaded, slow, or crashing handler degrades to clean error responses
// instead of taking the process down. Health, readiness, and stats endpoints
// bypass the deadline and admission layers: an operator must be able to
// observe an overloaded node.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/associate", s.handleAssociate)
	mux.HandleFunc("POST /v1/match", s.handleMatch)
	mux.HandleFunc("POST /v1/match/image", s.handleMatchImage)
	mux.HandleFunc("POST /v1/influence", s.handleInfluence)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	if !s.noMetrics {
		mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	}
	mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/admin/reload", s.handleReload)
	return s.withRecovery(s.withAdmission(s.withDeadline(s.withObservation(mux))))
}

// observabilityExempt reports whether the path must stay reachable on an
// overloaded or degraded node.
func observabilityExempt(path string) bool {
	switch path {
	case "/v1/healthz", "/v1/readyz", "/v1/statsz", "/v1/metrics":
		return true
	}
	return false
}

// withDeadline bounds each request's context so one slow query (a huge
// associate batch, a stalled client) cannot hold a worker forever. Reload is
// exempt besides the observability endpoints: swapping a large snapshot in
// legitimately outlives a query deadline.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if observabilityExempt(r.URL.Path) || r.URL.Path == "/v1/admin/reload" {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withAdmission bounds the number of concurrently served requests; load
// beyond the bound is shed immediately with 503 + Retry-After rather than
// queued, so latency stays flat and the node signals overload while it still
// can.
func (s *Server) withAdmission(next http.Handler) http.Handler {
	if s.sem == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if observabilityExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.stats.shed.Add(1)
			s.writeError(w, http.StatusServiceUnavailable, reasonOverloaded, "server at max in-flight requests")
			return
		}
		defer func() { <-s.sem }()
		next.ServeHTTP(w, r)
	})
}

// withRecovery is the outermost layer: a panicking handler is contained,
// counted, and answered with a 500 — the process and every other in-flight
// request survive. http.ErrAbortHandler is re-raised: it is the sanctioned
// way to abort a response, not a crash.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.stats.panics.Add(1)
			if !tw.wrote {
				s.writeError(tw, http.StatusInternalServerError, reasonPanic, fmt.Sprintf("handler panicked: %v", rec))
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether a response has started, so the recovery
// layer knows if a 500 can still be written.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (t *trackingWriter) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// --- responses ---------------------------------------------------------------

// The wire shapes (request/response DTOs, error reasons) live in wire.go;
// writeJSON, writeError and writeRaw below are the only three ways a handler
// puts a body on the wire, so the envelope stays uniform (the jsonwire
// analyzer enforces this).

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	if code >= 400 {
		s.stats.errors.Add(1)
	}
	if code == http.StatusServiceUnavailable {
		// Every 503 is retryable by construction (shed load, degraded
		// journal, closing server); say so explicitly for clients and
		// proxies that honour Retry-After.
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeRaw puts an already-encoded 200 body on the wire with one Write: the
// hand-encoded associate response from its pooled buffer, the metrics
// exposition. Errors never come through here; they are writeError's.
func (s *Server) writeRaw(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, code int, reason, msg string) {
	s.writeJSON(w, code, errorResponse{Error: msg, Reason: reason})
}

// writeQueryError maps a query-path failure to its transport shape: expired
// deadlines become 504, caller cancellations 503, anything else a 500.
func (s *Server) writeQueryError(w http.ResponseWriter, prefix string, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.timeouts.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, reasonDeadline, prefix+": "+err.Error())
	case errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusServiceUnavailable, reasonCanceled, prefix+": "+err.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, reasonInternal, prefix+": "+err.Error())
	}
}

// --- handlers ----------------------------------------------------------------

func (s *Server) handleAssociate(w http.ResponseWriter, r *http.Request) {
	s.stats.associateRequests.Add(1)
	sc := scratchPool.Get().(*wireScratch)
	defer putScratch(sc)
	posts, ok := s.readPosts(w, r, sc)
	if !ok {
		return
	}
	eng, gen := s.hot.Pin()
	assocs, err := eng.AssociateAppend(r.Context(), posts, sc.assocs[:0])
	sc.assocs = assocs
	if err != nil {
		s.writeQueryError(w, "associate", err)
		return
	}
	s.stats.associatedPosts.Add(int64(len(posts)))
	s.stats.associations.Add(int64(len(assocs)))
	s.logAssociateDecisions(sc, gen, eng, posts, assocs)
	sc.out = appendAssociateResponse(sc.out[:0], len(posts), gen, assocs, eng.Clusters())
	s.writeRaw(w, "application/json", sc.out)
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	s.stats.matchRequests.Add(1)
	sc := scratchPool.Get().(*wireScratch)
	defer putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	var req matchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, reasonBadRequest, "decoding request: "+err.Error())
		return
	}
	h, err := parseHash(req.Hash)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, reasonBadRequest, err.Error())
		return
	}
	s.answerMatch(w, r, h)
}

func (s *Server) handleMatchImage(w http.ResponseWriter, r *http.Request) {
	s.stats.matchImageRequests.Add(1)
	img, _, err := image.Decode(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, reasonBadRequest, "decoding image: "+err.Error())
		return
	}
	// Step 1 on the serve path: the pooled zero-alloc pHash.
	h, err := memes.HashImage(img)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, reasonBadRequest, "hashing image: "+err.Error())
		return
	}
	s.answerMatch(w, r, h)
}

// answerMatch serves both match endpoints: it pins one engine generation,
// looks the hash up on it and renders the answer against that same engine,
// so the cluster metadata and the generation label come from the artifact
// that answered even while a hot reload swaps the engine underneath.
func (s *Server) answerMatch(w http.ResponseWriter, r *http.Request, h memes.Hash) {
	eng, gen := s.hot.Pin()
	m, ok, err := eng.Match(r.Context(), h)
	if err != nil {
		s.writeQueryError(w, "match", err)
		return
	}
	resp := matchResponse{
		Matched:    ok,
		ClusterID:  -1,
		Distance:   -1,
		Hash:       h.String(), // canonical 16-digit lowercase hex
		Generation: gen,
	}
	if ok {
		s.stats.matched.Add(1)
		ci := &eng.Clusters()[m.ClusterID]
		resp.ClusterID = m.ClusterID
		resp.Distance = m.Distance
		resp.Entry = ci.EntryName()
		resp.Community = ci.Community.String()
	} else {
		s.stats.missed.Add(1)
	}
	s.logMatchDecision(h, resp)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleIngest feeds a batch of posts to the streaming Ingestor. The receipt
// tells the client how far each post got: assigned posts matched a resident
// annotated medoid and are servable now; pending posts wait in the pool for
// the next threshold-triggered re-cluster.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.stats.ingestRequests.Add(1)
	if s.ingestor == nil {
		s.writeError(w, http.StatusServiceUnavailable, reasonIngestDisabled, "ingest disabled: start the server with an ingest configuration")
		return
	}
	sc := scratchPool.Get().(*wireScratch)
	defer putScratch(sc)
	posts, ok := s.readPosts(w, r, sc)
	if !ok {
		return
	}
	rec, err := s.ingestor.Ingest(r.Context(), posts) // copies what it keeps
	if err != nil {
		switch {
		case errors.Is(err, memes.ErrIngestPoolFull):
			s.writeError(w, http.StatusServiceUnavailable, reasonPoolFull, "ingest: "+err.Error())
		case errors.Is(err, memes.ErrIngestJournalDegraded):
			s.writeError(w, http.StatusServiceUnavailable, reasonJournalDegraded, "ingest: "+err.Error())
		case errors.Is(err, memes.ErrIngestorClosed):
			s.writeError(w, http.StatusServiceUnavailable, reasonClosed, "ingest: "+err.Error())
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.writeQueryError(w, "ingest", err)
		default:
			s.writeError(w, http.StatusBadRequest, reasonBadRequest, "ingest: "+err.Error())
		}
		return
	}
	s.writeJSON(w, http.StatusOK, ingestResponse{
		Accepted:   rec.Accepted,
		Assigned:   rec.Assigned,
		Pending:    rec.Pending,
		Triggered:  rec.Triggered,
		Seq:        rec.Seq,
		Generation: s.hot.Generation(),
	})
}

// handleReadyz answers readiness, as distinct from handleHealthz's liveness:
// healthz says the process is up and holding an engine; readyz says this
// node should receive traffic. A node serving read-only because its journal
// degraded is alive but not ready — a fleet's front door drains it while
// queries in flight still complete.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	_, gen := s.hot.Pin()
	reason := ""
	switch {
	case s.closed.Load():
		reason = reasonClosed
	case s.ingestor != nil && s.ingestor.Degraded():
		reason = reasonJournalDegraded
	}
	if reason != "" {
		s.writeJSON(w, http.StatusServiceUnavailable, readyResponse{Ready: false, Reason: reason, Generation: gen})
		return
	}
	s.writeJSON(w, http.StatusOK, readyResponse{Ready: true, Generation: gen})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	eng, gen := s.hot.Pin()
	s.writeJSON(w, http.StatusOK, healthResponse{
		Status:            "ok",
		Generation:        gen,
		Clusters:          len(eng.Clusters()),
		AnnotatedClusters: annotatedCount(eng),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	eng, gen := s.hot.Pin()
	doc := StatsDoc{
		UptimeMS:          float64(time.Since(s.started)) / float64(time.Millisecond),
		Generation:        gen,
		LoadedAt:          s.loadedAt.Load().(time.Time).UTC().Format(time.RFC3339Nano),
		Clusters:          len(eng.Clusters()),
		AnnotatedClusters: annotatedCount(eng),
		Reloads:           s.stats.reloads.Load(),
		Requests: RequestStats{
			Associate:  s.stats.associateRequests.Load(),
			Match:      s.stats.matchRequests.Load(),
			MatchImage: s.stats.matchImageRequests.Load(),
			Ingest:     s.stats.ingestRequests.Load(),
			Reload:     s.stats.reloadRequests.Load(),
			Influence:  s.stats.influenceRequests.Load(),
			Report:     s.stats.reportRequests.Load(),
			Metrics:    s.stats.metricsRequests.Load(),
			Errors:     s.stats.errors.Load(),
		},
		Match: MatchStats{
			Matched: s.stats.matched.Load(),
			Missed:  s.stats.missed.Load(),
		},
		Associate: AssocStats{
			Posts:        s.stats.associatedPosts.Load(),
			Associations: s.stats.associations.Load(),
		},
		Overload: OverloadStats{
			Shed:        s.stats.shed.Load(),
			Timeouts:    s.stats.timeouts.Load(),
			Panics:      s.stats.panics.Load(),
			InFlight:    len(s.sem),
			MaxInFlight: cap(s.sem),
		},
		BuildStats: cli.StatsDoc(eng.BuildStats()),
	}
	if s.declog != nil {
		st := s.declog.Stats()
		doc.DecisionLog = DecLogStats{
			Enabled:       true,
			Logged:        st.Logged,
			Dropped:       st.Dropped,
			Batches:       st.Batches,
			Flushed:       st.Flushed,
			FlushFailures: st.FlushFailures,
			Buffered:      st.Buffered,
		}
	}
	if s.ingestor != nil {
		st := s.ingestor.Stats()
		doc.Ingest = IngestStats{
			Enabled:           true,
			Ingested:          st.Ingested,
			Assigned:          st.Assigned,
			Rejected:          st.Rejected,
			Pending:           st.Pending,
			Pool:              st.Pool,
			Reclusters:        st.Reclusters,
			ReclusterFailures: st.ReclusterFailures,
			Compactions:       st.Compactions,
			DeltaSegments:     st.DeltaSegments,
			Seq:               st.Seq,
			JournalRetries:    st.JournalRetries,
			JournalFailures:   st.JournalFailures,
			TornTails:         st.TornTails,
			Degraded:          st.Degraded,
		}
		doc.Degraded = st.Degraded
	}
	s.writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	eng, gen := s.hot.Pin()
	clusters := eng.Clusters()
	resp := clustersResponse{Generation: gen, Clusters: make([]clusterJSON, 0, len(clusters))}
	for i := range clusters {
		ci := &clusters[i]
		resp.Clusters = append(resp.Clusters, clusterJSON{
			ID:             ci.ID,
			Community:      ci.Community.String(),
			Entry:          ci.EntryName(),
			Images:         ci.Images,
			DistinctHashes: ci.DistinctHashes,
			MedoidHash:     ci.MedoidHash.String(),
			Annotated:      ci.Annotated(),
			Racist:         ci.Racist,
			Political:      ci.Political,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.stats.reloadRequests.Add(1)
	st, err := s.Reload()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, reasonReloadFailed, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// --- helpers -----------------------------------------------------------------

// annotatedCount counts the clusters the Step 6 index actually serves.
func annotatedCount(eng *memes.Engine) int {
	n := 0
	clusters := eng.Clusters()
	for i := range clusters {
		if clusters[i].Annotated() {
			n++
		}
	}
	return n
}

// parseHash accepts the two wire forms of a perceptual hash: a JSON string
// in the canonical hexadecimal form (optionally 0x-prefixed — what
// /v1/clusters and /v1/match emit, immune to float mangling in
// non-64-bit-integer JSON clients), or a bare JSON integer (the decimal
// form posts.jsonl stores). Quoting selects the base: strings are always
// hex (delegated to phash.Parse, which also caps the length at 16 digits,
// so a stringified 17+-digit decimal fails loudly instead of silently
// parsing as a different hash), bare integers always decimal.
func parseHash(raw json.RawMessage) (memes.Hash, error) {
	t := strings.TrimSpace(string(raw))
	if t == "" || t == "null" {
		return 0, errors.New(`missing "hash" field`)
	}
	if strings.HasPrefix(t, `"`) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return 0, fmt.Errorf("invalid hash string: %v", err)
		}
		h, err := phash.Parse(strings.TrimPrefix(strings.TrimSpace(s), "0x"))
		if err != nil {
			return 0, fmt.Errorf("invalid hex hash %q: %v", s, err)
		}
		return h, nil
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid hash %q: want a hex string or an unsigned integer", t)
	}
	return memes.Hash(v), nil
}
