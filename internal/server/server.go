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
// requests finish on the generation they started with. With ingest on, the
// Ingestor is the only writer of the served generation, and Reload
// publishes its pooled posts instead of reloading the boot artifact.
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
//	GET  /v1/metrics                                the same snapshot as Prometheus text
//	GET  /v1/clusters                               the annotated-cluster artifact
//	POST /v1/admin/reload                           hot-swap a fresh snapshot
//
// The routes table declares each endpoint once (pattern, label, class,
// handler), and Handler registers it; statsDoc is the one snapshot both
// /v1/statsz and /v1/metrics render.
//
// Request/response shapes live in wire.go — the de-facto API spec. A JSON
// body is read whole and must be one value: trailing bytes are a 400, a body
// over Config.MaxBodyBytes a 413 body_too_large. The {"posts":[…]} bodies and
// the associate response go through the hand-written Post codec, and the
// {"hash": …} body and the match response through the match codec (both in
// codec.go); each parser declines to encoding/json for anything outside the
// canonical shape.
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
	"github.com/memes-pipeline/memes/internal/declog"
	"github.com/memes-pipeline/memes/internal/metrics"
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
	// again on every Reload without ingest, so it must be safe to call
	// repeatedly (typically: memes.LoadEngineFile on the snapshot path).
	Loader func() (*memes.Engine, error)
	// MaxBodyBytes bounds request bodies; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Ingest, when set, enables the streaming ingest path: it receives the
	// server's hot engine handle and returns the Ingestor POST /v1/ingest
	// feeds (typically memes.NewIngestor over the serving corpus). Nil
	// disables the endpoint (503).
	Ingest func(*memes.HotEngine) (*memes.Ingestor, error)
	// MaxInFlight bounds concurrently admitted requests (the probe
	// endpoints are exempt; see routes); 0 means DefaultMaxInFlight,
	// negative disables admission control.
	MaxInFlight int
	// RequestTimeout is the deadline applied to each query-class request's
	// context (ingest included); 0 means DefaultRequestTimeout, negative
	// disables it.
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
	reloadMu sync.Mutex // serialises Reload; queries never take it
	maxBody  int64

	sem        chan struct{} // admission slots; nil disables admission control
	reqTimeout time.Duration // per-request deadline; <= 0 disables
	closed     atomic.Bool   // Close ran; readiness is permanently false

	declog    *declog.Logger // decision stream; nil disables capture
	endpoints []endpoint     // routes, as served by this Server
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
	s.endpoints = make([]endpoint, len(routes))
	for i, rt := range routes {
		ep := &s.endpoints[i]
		ep.route = rt
		if rt.count != nil {
			ep.latency = metrics.NewHistogram()
			ep.labels = []metrics.Label{{Name: "endpoint", Value: rt.label}}
		}
	}
	if maxInFlight > 0 {
		s.sem = make(chan struct{}, maxInFlight)
	}
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

// Reload refreshes the served generation. Without ingest it runs the loader
// and atomically swaps the fresh engine in. With ingest the Ingestor owns
// the generation: Reload folds whatever is pooled and publishes it
// (Ingestor.Recluster), and never calls the loader, whose artifact predates
// every ingested post. Either way it reports the generation being served.
// Requests in flight finish on the generation they pinned; no request is
// dropped or blocked. Reloads are serialised. A failed load leaves the old
// engine serving; under ingest, a compaction that fails after the publish
// fails the reload with the new generation already served.
func (s *Server) Reload() (ReloadStatus, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	if s.ingestor != nil {
		if err := s.ingestor.Recluster(context.TODO()); err != nil {
			return ReloadStatus{}, fmt.Errorf("server: reload: %w", err)
		}
	} else {
		eng, err := s.loader()
		if err != nil {
			return ReloadStatus{}, fmt.Errorf("server: reload: %w", err)
		}
		s.hot.Swap(eng)
	}
	eng, gen := s.hot.Pin()
	s.stats.reloads.Add(1)
	d := time.Since(start)
	return ReloadStatus{
		Generation: gen,
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

// routeClass says which hardening layers an endpoint runs behind.
type routeClass uint8

const (
	// probe endpoints skip admission and the deadline: an operator must be
	// able to observe an overloaded or degraded node.
	probe routeClass = iota
	// reload is admitted but has no deadline: swapping a large snapshot in
	// legitimately outlives a query deadline.
	reload
	// query endpoints are admitted and bounded by the per-request deadline.
	query
)

// route declares one endpoint of the API: its mux pattern, its label, its
// class and its handler. A route with a count selector counts its requests
// into that RequestStats field (statsz requests.<label>,
// memes_requests_total{endpoint="<label>"}) and observes its latency
// (memes_request_duration_seconds); the probes without one do neither.
type route struct {
	pattern string
	label   string
	class   routeClass
	handle  func(*Server, http.ResponseWriter, *http.Request)
	count   func(*RequestStats) *int64
}

// routes is the API, one row per endpoint; Handler registers them in order.
var routes = [...]route{
	{"POST /v1/associate", "associate", query, (*Server).handleAssociate, func(r *RequestStats) *int64 { return &r.Associate }},
	{"POST /v1/match", "match", query, (*Server).handleMatch, func(r *RequestStats) *int64 { return &r.Match }},
	{"POST /v1/match/image", "match_image", query, (*Server).handleMatchImage, func(r *RequestStats) *int64 { return &r.MatchImage }},
	{"POST /v1/ingest", "ingest", query, (*Server).handleIngest, func(r *RequestStats) *int64 { return &r.Ingest }},
	{"POST /v1/influence", "influence", query, (*Server).handleInfluence, func(r *RequestStats) *int64 { return &r.Influence }},
	{"GET /v1/report", "report", query, (*Server).handleReport, func(r *RequestStats) *int64 { return &r.Report }},
	{"GET /v1/clusters", "clusters", query, (*Server).handleClusters, func(r *RequestStats) *int64 { return &r.Clusters }},
	{"POST /v1/admin/reload", "reload", reload, (*Server).handleReload, func(r *RequestStats) *int64 { return &r.Reload }},
	{"GET /v1/metrics", "metrics", probe, (*Server).handleMetrics, func(r *RequestStats) *int64 { return &r.Metrics }},
	{"GET /v1/healthz", "", probe, (*Server).handleHealthz, nil},
	{"GET /v1/readyz", "", probe, (*Server).handleReadyz, nil},
	{"GET /v1/statsz", "", probe, (*Server).handleStatsz, nil},
}

// endpoint is a route as one Server serves it. A counted route (count set)
// gets a request counter, a latency histogram and its endpoint label.
type endpoint struct {
	route
	requests atomic.Int64
	latency  *metrics.Histogram
	labels   []metrics.Label
}

// Handler returns the server's HTTP handler: a stdlib mux with one entry per
// row of routes, so wrong-method requests get 405 with an Allow header and
// unknown paths 404, from the mux and from no endpoint. Each endpoint sits
// behind the layers its class asks for — innermost to outermost: request
// count and latency observation, per-request deadline, bounded-in-flight
// admission control — and the mux behind panic recovery, so an overloaded,
// slow, or crashing handler degrades to clean error responses instead of
// taking the process down.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i := range s.endpoints {
		ep := &s.endpoints[i]
		if s.noMetrics && ep.label == "metrics" {
			continue
		}
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ep.handle(s, w, r) })
		if ep.count != nil {
			h = ep.observe(h)
		}
		if ep.class == query {
			h = s.withDeadline(h)
		}
		if ep.class != probe {
			h = s.withAdmission(h)
		}
		mux.Handle(ep.pattern, h)
	}
	return s.withRecovery(mux)
}

// withDeadline bounds each request's context so one slow query (a huge
// associate batch, a stalled client) cannot hold a worker forever. The
// context arms a timer only if the handler waits on Done (see lazyDeadline):
// a lookup polls Err and costs no timer.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.reqTimeout <= 0 {
		return next
	}
	return deadlineHandler{next: next, timeout: s.reqTimeout}
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
		tw := trackingPool.Get().(*trackingWriter)
		tw.ResponseWriter, tw.wrote = w, false
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.stats.panics.Add(1)
				if !tw.wrote {
					s.writeError(tw, http.StatusInternalServerError, reasonPanic, fmt.Sprintf("handler panicked: %v", rec))
				}
			}
			tw.ResponseWriter = nil
			trackingPool.Put(tw)
		}()
		next.ServeHTTP(tw, r)
	})
}

var trackingPool = sync.Pool{New: func() any { return new(trackingWriter) }}

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
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// The Content-Type values the server answers with, each one shared slice:
// assigning it to a header key saves Header.Set's allocation per response.
// Sharing is safe because nothing writes into a handler header's value
// slices: net/http clones the header at WriteHeader, and Header.Add appends
// past these full slices into a fresh array.
var (
	contentTypeJSON    = []string{"application/json"}
	contentTypeMetrics = []string{"text/plain; version=0.0.4; charset=utf-8"}
)

// writeRaw puts an already-encoded 200 body on the wire with one Write: the
// hand-encoded associate and match responses from their pooled buffers, the
// metrics exposition. Errors never come through here; they are writeError's.
func (s *Server) writeRaw(w http.ResponseWriter, contentType []string, body []byte) {
	w.Header()["Content-Type"] = contentType
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
	s.writeRaw(w, contentTypeJSON, sc.out)
}

// handleMatch reads {"hash": …} on the fast path (parseMatch) or, when that
// declines, through json.Unmarshal and parseHash, whose errors are the 400s.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*wireScratch)
	defer putScratch(sc)
	body, ok := s.readBody(w, r, sc)
	if !ok {
		return
	}
	h, ok := parseMatch(body)
	if !ok {
		var req matchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			s.writeError(w, http.StatusBadRequest, reasonBadRequest, "decoding request: "+err.Error())
			return
		}
		var err error
		if h, err = parseHash(req.Hash); err != nil {
			s.writeError(w, http.StatusBadRequest, reasonBadRequest, err.Error())
			return
		}
	}
	s.answerMatch(w, r, sc, h)
}

func (s *Server) handleMatchImage(w http.ResponseWriter, r *http.Request) {
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
	sc := scratchPool.Get().(*wireScratch)
	defer putScratch(sc)
	s.answerMatch(w, r, sc, h)
}

// answerMatch serves both match endpoints: it pins one engine generation,
// looks the hash up on it and renders the answer against that same engine,
// so the cluster metadata and the generation label come from the artifact
// that answered even while a hot reload swaps the engine underneath. The
// answer is appended into sc.out.
func (s *Server) answerMatch(w http.ResponseWriter, r *http.Request, sc *wireScratch, h memes.Hash) {
	eng, gen := s.hot.Pin()
	m, ok, err := eng.Match(r.Context(), h)
	if err != nil {
		s.writeQueryError(w, "match", err)
		return
	}
	var ci *memes.ClusterInfo
	if ok {
		s.stats.matched.Add(1)
		ci = &eng.Clusters()[m.ClusterID]
	} else {
		s.stats.missed.Add(1)
		m = memes.Match{ClusterID: -1, Distance: -1}
	}
	s.logMatchDecision(h, gen, m, ci)
	sc.out = appendMatchResponse(sc.out[:0], h, gen, m, ci)
	s.writeRaw(w, contentTypeJSON, sc.out)
}

// handleIngest feeds a batch of posts to the streaming Ingestor. The receipt
// tells the client how far each post got: assigned posts matched a resident
// annotated medoid and are servable now; pending posts wait in the pool for
// the next threshold-triggered re-cluster.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
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
