package server

import (
	"bytes"
	"net/http"
	"time"

	"github.com/memes-pipeline/memes/internal/metrics"
)

// observability holds the per-endpoint latency histograms behind
// GET /v1/metrics. The histograms are created once at server construction
// and observed lock-free on the request path; everything else the endpoint
// emits renders directly from the same atomic counters /v1/statsz reads,
// which is what makes the two endpoints agree by construction.
type observability struct {
	endpoints []obsEndpoint
}

type obsEndpoint struct {
	path  string
	label string
	hist  *metrics.Histogram
}

func (o *observability) init() {
	for _, e := range []struct{ path, label string }{
		{"/v1/associate", "associate"},
		{"/v1/match", "match"},
		{"/v1/match/image", "match_image"},
		{"/v1/ingest", "ingest"},
		{"/v1/influence", "influence"},
		{"/v1/report", "report"},
		{"/v1/clusters", "clusters"},
		{"/v1/admin/reload", "reload"},
	} {
		o.endpoints = append(o.endpoints, obsEndpoint{path: e.path, label: e.label, hist: metrics.NewHistogram()})
	}
}

// histFor returns the histogram observing a path, or nil for paths not
// tracked (health/stats/metrics — scrape traffic would only add noise).
func (o *observability) histFor(path string) *metrics.Histogram {
	for i := range o.endpoints {
		if o.endpoints[i].path == path {
			return o.endpoints[i].hist
		}
	}
	return nil
}

// withObservation is the innermost middleware: it times each tracked
// request over the handler (inside the deadline and admission layers, so a
// shed request is not an observation) and feeds the endpoint's latency
// histogram.
func (s *Server) withObservation(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := s.obs.histFor(r.URL.Path)
		if h == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		h.Observe(time.Since(start).Seconds())
	})
}

// handleMetrics answers GET /v1/metrics in the Prometheus text exposition
// format. Counters render from the exact atomics /v1/statsz renders, so
// the two views cannot drift; histograms come from the observation
// middleware. The endpoint is observability-exempt: it bypasses admission
// control and deadlines, because an operator must be able to scrape an
// overloaded node.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.stats.metricsRequests.Add(1)
	eng, gen := s.hot.Pin()

	var buf bytes.Buffer
	e := metrics.NewEncoder(&buf)

	e.Counter("memes_requests_total", "Requests received, by endpoint.")
	for _, rc := range []struct {
		endpoint string
		v        int64
	}{
		{"associate", s.stats.associateRequests.Load()},
		{"match", s.stats.matchRequests.Load()},
		{"match_image", s.stats.matchImageRequests.Load()},
		{"ingest", s.stats.ingestRequests.Load()},
		{"reload", s.stats.reloadRequests.Load()},
		{"influence", s.stats.influenceRequests.Load()},
		{"report", s.stats.reportRequests.Load()},
		{"metrics", s.stats.metricsRequests.Load()},
	} {
		e.Sample("memes_requests_total", []metrics.Label{{Name: "endpoint", Value: rc.endpoint}}, float64(rc.v))
	}

	e.Counter("memes_errors_total", "Requests answered with a non-2xx status.")
	e.Sample("memes_errors_total", nil, float64(s.stats.errors.Load()))

	e.Counter("memes_match_total", "Single-hash lookups, by outcome.")
	e.Sample("memes_match_total", []metrics.Label{{Name: "outcome", Value: "matched"}}, float64(s.stats.matched.Load()))
	e.Sample("memes_match_total", []metrics.Label{{Name: "outcome", Value: "missed"}}, float64(s.stats.missed.Load()))

	e.Counter("memes_associate_posts_total", "Posts received by /v1/associate.")
	e.Sample("memes_associate_posts_total", nil, float64(s.stats.associatedPosts.Load()))
	e.Counter("memes_associations_total", "Associations returned by /v1/associate.")
	e.Sample("memes_associations_total", nil, float64(s.stats.associations.Load()))

	e.Counter("memes_overload_shed_total", "Requests refused by admission control.")
	e.Sample("memes_overload_shed_total", nil, float64(s.stats.shed.Load()))
	e.Counter("memes_request_timeouts_total", "Requests answered 504 after their deadline.")
	e.Sample("memes_request_timeouts_total", nil, float64(s.stats.timeouts.Load()))
	e.Counter("memes_handler_panics_total", "Handler panics contained by the recovery middleware.")
	e.Sample("memes_handler_panics_total", nil, float64(s.stats.panics.Load()))
	e.Gauge("memes_inflight_requests", "Requests currently holding an admission slot.")
	e.Sample("memes_inflight_requests", nil, float64(len(s.sem)))
	e.Gauge("memes_max_inflight_requests", "Admission-control bound; 0 when disabled.")
	e.Sample("memes_max_inflight_requests", nil, float64(cap(s.sem)))

	e.Counter("memes_reloads_total", "Successful hot swaps.")
	e.Sample("memes_reloads_total", nil, float64(s.stats.reloads.Load()))
	e.Gauge("memes_engine_generation", "Hot-swap generation currently serving.")
	e.Sample("memes_engine_generation", nil, float64(gen))
	e.Gauge("memes_snapshot_version", "MEMESNAP format version of the resident artifact; 0 for in-memory builds.")
	e.Sample("memes_snapshot_version", nil, float64(eng.SnapshotVersion()))
	e.Gauge("memes_clusters", "Clusters in the resident artifact.")
	e.Sample("memes_clusters", nil, float64(len(eng.Clusters())))
	e.Gauge("memes_annotated_clusters", "Annotated clusters the Step 6 index serves.")
	e.Sample("memes_annotated_clusters", nil, float64(annotatedCount(eng)))
	e.Gauge("memes_uptime_seconds", "Seconds since the server started.")
	e.Sample("memes_uptime_seconds", nil, time.Since(s.started).Seconds())

	degraded := 0.0
	if s.ingestor != nil {
		st := s.ingestor.Stats()
		if st.Degraded {
			degraded = 1
		}
		e.Counter("memes_ingest_posts_total", "Posts accepted by streaming ingest.")
		e.Sample("memes_ingest_posts_total", nil, float64(st.Ingested))
		e.Counter("memes_ingest_assigned_total", "Ingested posts assigned to a resident cluster.")
		e.Sample("memes_ingest_assigned_total", nil, float64(st.Assigned))
		e.Counter("memes_ingest_rejected_total", "Ingest posts rejected.")
		e.Sample("memes_ingest_rejected_total", nil, float64(st.Rejected))
		e.Gauge("memes_ingest_pending", "Posts awaiting the next threshold-triggered re-cluster.")
		e.Sample("memes_ingest_pending", nil, float64(st.Pending))
		e.Counter("memes_ingest_reclusters_total", "Incremental re-clusters run.")
		e.Sample("memes_ingest_reclusters_total", nil, float64(st.Reclusters))
		e.Counter("memes_ingest_recluster_failures_total", "Incremental re-clusters that failed.")
		e.Sample("memes_ingest_recluster_failures_total", nil, float64(st.ReclusterFailures))
		e.Counter("memes_ingest_compactions_total", "Delta-journal compactions.")
		e.Sample("memes_ingest_compactions_total", nil, float64(st.Compactions))
		e.Counter("memes_ingest_journal_failures_total", "Journal writes that exhausted their retries.")
		e.Sample("memes_ingest_journal_failures_total", nil, float64(st.JournalFailures))
	}
	e.Gauge("memes_degraded", "1 when the ingest journal is degraded (read-only serving).")
	e.Sample("memes_degraded", nil, degraded)

	if s.declog != nil {
		st := s.declog.Stats()
		e.Counter("memes_decision_log_logged_total", "Decisions accepted into the log buffer.")
		e.Sample("memes_decision_log_logged_total", nil, float64(st.Logged))
		e.Counter("memes_decision_log_dropped_total", "Decisions dropped because the buffer was full.")
		e.Sample("memes_decision_log_dropped_total", nil, float64(st.Dropped))
		e.Counter("memes_decision_log_batches_total", "Decision batches uploaded to the sink.")
		e.Sample("memes_decision_log_batches_total", nil, float64(st.Batches))
		e.Counter("memes_decision_log_flushed_total", "Decisions successfully flushed to the sink.")
		e.Sample("memes_decision_log_flushed_total", nil, float64(st.Flushed))
		e.Counter("memes_decision_log_flush_failures_total", "Failed sink uploads.")
		e.Sample("memes_decision_log_flush_failures_total", nil, float64(st.FlushFailures))
		e.Gauge("memes_decision_log_buffered", "Decisions currently awaiting flush.")
		e.Sample("memes_decision_log_buffered", nil, float64(st.Buffered))
	}

	e.HistogramType("memes_request_duration_seconds", "Request latency over the handler, by endpoint.")
	for i := range s.obs.endpoints {
		ep := &s.obs.endpoints[i]
		ep.hist.Write(e, "memes_request_duration_seconds", []metrics.Label{{Name: "endpoint", Value: ep.label}})
	}

	if err := e.Err(); err != nil {
		s.writeError(w, http.StatusInternalServerError, reasonInternal, "rendering metrics: "+err.Error())
		return
	}
	s.writeRaw(w, "text/plain; version=0.0.4; charset=utf-8", buf.Bytes())
}
