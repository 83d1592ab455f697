package server

import (
	"bytes"
	"net/http"
	"time"

	"github.com/memes-pipeline/memes/internal/metrics"
)

// observe counts each request of a labelled endpoint and times it over the
// handler into the endpoint's latency histogram. It is the innermost layer
// (inside the deadline and admission layers, so a shed request is neither a
// request of the endpoint nor an observation), and it allocates nothing.
func (ep *endpoint) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep.requests.Add(1)
		start := time.Now()
		next.ServeHTTP(w, r)
		ep.latency.Observe(time.Since(start).Seconds())
	})
}

// A family's kind is the encoder method that writes its HELP and TYPE lines.
var counter, gauge = (*metrics.Encoder).Counter, (*metrics.Encoder).Gauge

// family is one counter or gauge of /v1/metrics, read off the StatsDoc
// snapshot /v1/statsz writes. on gates a subsystem's families (nil: always
// rendered); a family has one sample per entry of samples.
type family struct {
	name    string
	kind    func(e *metrics.Encoder, name, help string)
	help    string
	on      func(d *StatsDoc) bool
	samples []sample
}

// sample is one series of a family: its labels and how to read its value.
type sample struct {
	labels []metrics.Label
	value  func(d *StatsDoc) float64
}

// one is the single unlabelled sample of a family.
func one(value func(d *StatsDoc) float64) []sample { return []sample{{value: value}} }

func ingestOn(d *StatsDoc) bool      { return d.Ingest.Enabled }
func decisionLogOn(d *StatsDoc) bool { return d.DecisionLog.Enabled }

func outcome(v string) []metrics.Label { return []metrics.Label{{Name: "outcome", Value: v}} }

// families is every counter and gauge of /v1/metrics besides the
// per-endpoint request counters, in exposition order.
var families = []family{
	{"memes_errors_total", counter, "Requests answered with a non-2xx status.", nil, one(func(d *StatsDoc) float64 { return float64(d.Requests.Errors) })},
	{"memes_match_total", counter, "Single-hash lookups, by outcome.", nil, []sample{
		{outcome("matched"), func(d *StatsDoc) float64 { return float64(d.Match.Matched) }},
		{outcome("missed"), func(d *StatsDoc) float64 { return float64(d.Match.Missed) }},
	}},
	{"memes_associate_posts_total", counter, "Posts received by /v1/associate.", nil, one(func(d *StatsDoc) float64 { return float64(d.Associate.Posts) })},
	{"memes_associations_total", counter, "Associations returned by /v1/associate.", nil, one(func(d *StatsDoc) float64 { return float64(d.Associate.Associations) })},
	{"memes_overload_shed_total", counter, "Requests refused by admission control.", nil, one(func(d *StatsDoc) float64 { return float64(d.Overload.Shed) })},
	{"memes_request_timeouts_total", counter, "Requests answered 504 after their deadline.", nil, one(func(d *StatsDoc) float64 { return float64(d.Overload.Timeouts) })},
	{"memes_handler_panics_total", counter, "Handler panics contained by the recovery middleware.", nil, one(func(d *StatsDoc) float64 { return float64(d.Overload.Panics) })},
	{"memes_inflight_requests", gauge, "Requests currently holding an admission slot.", nil, one(func(d *StatsDoc) float64 { return float64(d.Overload.InFlight) })},
	{"memes_max_inflight_requests", gauge, "Admission-control bound; 0 when disabled.", nil, one(func(d *StatsDoc) float64 { return float64(d.Overload.MaxInFlight) })},
	{"memes_reloads_total", counter, "Successful hot swaps.", nil, one(func(d *StatsDoc) float64 { return float64(d.Reloads) })},
	{"memes_engine_generation", gauge, "Hot-swap generation currently serving.", nil, one(func(d *StatsDoc) float64 { return float64(d.Generation) })},
	{"memes_snapshot_version", gauge, "MEMESNAP format version of the resident artifact; 0 for in-memory builds.", nil, one(func(d *StatsDoc) float64 { return float64(d.SnapshotVersion) })},
	{"memes_clusters", gauge, "Clusters in the resident artifact.", nil, one(func(d *StatsDoc) float64 { return float64(d.Clusters) })},
	{"memes_annotated_clusters", gauge, "Annotated clusters the Step 6 index serves.", nil, one(func(d *StatsDoc) float64 { return float64(d.AnnotatedClusters) })},
	{"memes_uptime_seconds", gauge, "Seconds since the server started.", nil, one(func(d *StatsDoc) float64 { return d.UptimeMS / 1e3 })},
	{"memes_ingest_posts_total", counter, "Posts accepted by streaming ingest.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.Ingested) })},
	{"memes_ingest_assigned_total", counter, "Ingested posts assigned to a resident cluster.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.Assigned) })},
	{"memes_ingest_rejected_total", counter, "Ingest posts rejected.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.Rejected) })},
	{"memes_ingest_pending", gauge, "Posts awaiting the next threshold-triggered re-cluster.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.Pending) })},
	{"memes_ingest_reclusters_total", counter, "Incremental re-clusters run.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.Reclusters) })},
	{"memes_ingest_recluster_failures_total", counter, "Incremental re-clusters that failed.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.ReclusterFailures) })},
	{"memes_ingest_compactions_total", counter, "Delta-journal compactions.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.Compactions) })},
	{"memes_ingest_journal_failures_total", counter, "Journal writes that exhausted their retries.", ingestOn, one(func(d *StatsDoc) float64 { return float64(d.Ingest.JournalFailures) })},
	{"memes_degraded", gauge, "1 when the ingest journal is degraded (read-only serving).", nil, one(func(d *StatsDoc) float64 {
		if d.Degraded {
			return 1
		}
		return 0
	})},
	{"memes_decision_log_logged_total", counter, "Decisions accepted into the log buffer.", decisionLogOn, one(func(d *StatsDoc) float64 { return float64(d.DecisionLog.Logged) })},
	{"memes_decision_log_dropped_total", counter, "Decisions dropped because the buffer was full.", decisionLogOn, one(func(d *StatsDoc) float64 { return float64(d.DecisionLog.Dropped) })},
	{"memes_decision_log_batches_total", counter, "Decision batches uploaded to the sink.", decisionLogOn, one(func(d *StatsDoc) float64 { return float64(d.DecisionLog.Batches) })},
	{"memes_decision_log_flushed_total", counter, "Decisions successfully flushed to the sink.", decisionLogOn, one(func(d *StatsDoc) float64 { return float64(d.DecisionLog.Flushed) })},
	{"memes_decision_log_flush_failures_total", counter, "Failed sink uploads.", decisionLogOn, one(func(d *StatsDoc) float64 { return float64(d.DecisionLog.FlushFailures) })},
	{"memes_decision_log_buffered", gauge, "Decisions currently awaiting flush.", decisionLogOn, one(func(d *StatsDoc) float64 { return float64(d.DecisionLog.Buffered) })},
}

// handleMetrics answers GET /v1/metrics in the Prometheus text exposition
// format, rendered from one statsDoc snapshot: the per-endpoint request
// counters, the families table, then the per-endpoint latency histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	d := s.statsDoc()
	var buf bytes.Buffer
	e := metrics.NewEncoder(&buf)

	const requests, latency = "memes_requests_total", "memes_request_duration_seconds"
	e.Counter(requests, "Requests received, by endpoint.")
	for i := range s.endpoints {
		if ep := &s.endpoints[i]; ep.count != nil {
			e.Sample(requests, ep.labels, float64(*ep.count(&d.Requests)))
		}
	}
	for i := range families {
		f := &families[i]
		if f.on != nil && !f.on(&d) {
			continue
		}
		f.kind(e, f.name, f.help)
		for _, smp := range f.samples {
			e.Sample(f.name, smp.labels, smp.value(&d))
		}
	}
	e.HistogramType(latency, "Request latency over the handler, by endpoint.")
	for i := range s.endpoints {
		if ep := &s.endpoints[i]; ep.count != nil {
			ep.latency.Write(e, latency, ep.labels)
		}
	}

	if err := e.Err(); err != nil {
		s.writeError(w, http.StatusInternalServerError, reasonInternal, "rendering metrics: "+err.Error())
		return
	}
	s.writeRaw(w, contentTypeMetrics, buf.Bytes())
}
