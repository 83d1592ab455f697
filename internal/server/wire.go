package server

import (
	"encoding/json"
	"time"

	"github.com/memes-pipeline/memes"
	"github.com/memes-pipeline/memes/internal/cli"
)

// This file is the de-facto wire specification of the serving API: every
// request and response DTO of every endpoint, in one place, with explicit
// snake_case JSON tags (enforced by the jsonwire memelint analyzer). The
// handlers in server.go and analysis.go only marshal these shapes; if a
// field is not here, it is not on the wire.
//
// Conventions:
//   - every response that reads engine state carries "generation", the
//     hot-swap generation that served it;
//   - arrays are never null — encoders emit [] for empty;
//   - errors are always errorResponse, written via writeError (the jsonwire
//     analyzer flags hand-rolled error writes that bypass it).

// Machine-readable error reasons, carried in every error response so
// clients and load balancers can react without parsing prose.
const (
	reasonBadRequest       = "bad_request"
	reasonBodyTooLarge     = "body_too_large"
	reasonInternal         = "internal"
	reasonOverloaded       = "overloaded"
	reasonDeadline         = "deadline"
	reasonCanceled         = "canceled"
	reasonClosed           = "closed"
	reasonPanic            = "panic"
	reasonPoolFull         = "pool_full"
	reasonIngestDisabled   = "ingest_disabled"
	reasonJournalDegraded  = "journal_degraded"
	reasonReloadFailed     = "reload_failed"
	reasonAnalysisDisabled = "analysis_disabled"
)

// errorResponse is the single error envelope of the API: every non-2xx
// response body has exactly this shape. Error is prose for humans; Reason
// is one of the reason* slugs above, stable for machines.
type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// postsRequest is the body of POST /v1/associate (an arbitrary batch of
// posts to run Step 6 association over) and of POST /v1/ingest (new posts
// for the streaming ingest path). Handlers take it from readPosts, whose
// fast path parses the canonical encoding of this shape without reflection.
type postsRequest struct {
	Posts []memes.Post `json:"posts"`
}

// associationJSON is one post-to-cluster association in an
// associateResponse.
type associationJSON struct {
	PostIndex int    `json:"post_index"`
	ClusterID int    `json:"cluster_id"`
	Distance  int    `json:"distance"`
	Entry     string `json:"entry,omitempty"`
}

// associateResponse answers POST /v1/associate. The handler writes it with
// appendAssociateResponse, which a test pins to this struct's encoding.
type associateResponse struct {
	Posts        int               `json:"posts"`
	Matched      int               `json:"matched"`
	Generation   uint64            `json:"generation"`
	Associations []associationJSON `json:"associations"`
}

// matchRequest is the POST /v1/match body. Hash is kept raw because the
// wire accepts two forms: a hex string (canonical) or a bare decimal
// integer; see parseHash.
type matchRequest struct {
	Hash json.RawMessage `json:"hash"`
}

// matchResponse answers POST /v1/match and POST /v1/match/image. ClusterID
// and Distance are -1 when Matched is false.
type matchResponse struct {
	Matched    bool   `json:"matched"`
	ClusterID  int    `json:"cluster_id"`
	Distance   int    `json:"distance"`
	Entry      string `json:"entry,omitempty"`
	Community  string `json:"community,omitempty"`
	Hash       string `json:"hash"`
	Generation uint64 `json:"generation"`
}

// ingestResponse answers POST /v1/ingest with the ingest receipt: how far
// each post got (assigned = servable now, pending = awaiting the next
// threshold-triggered re-cluster).
type ingestResponse struct {
	Accepted   int    `json:"accepted"`
	Assigned   int    `json:"assigned"`
	Pending    int    `json:"pending"`
	Triggered  bool   `json:"triggered"`
	Seq        uint64 `json:"seq"`
	Generation uint64 `json:"generation"`
}

// influenceRequest is the POST /v1/influence body. Group selects the meme
// subset ("all", "racist", "non-racist", "politics", "non-politics");
// empty means "all". The remaining fields override the corresponding
// InfluenceConfig knobs when positive and keep the analysis defaults when
// omitted, so an empty body reproduces the offline defaults exactly.
type influenceRequest struct {
	Group           string  `json:"group"`
	Omega           float64 `json:"omega,omitempty"`
	MaxIter         int     `json:"max_iter,omitempty"`
	MinEventsPerFit int     `json:"min_events_per_fit,omitempty"`
}

// influenceResponse answers POST /v1/influence with the paper's Section 5
// matrices for the requested group, computed over the live engine's
// full-corpus result. For identical corpus and configuration the numbers
// are bitwise-identical to the offline analysis path (float64 survives
// JSON round-trips exactly), for any worker count.
type influenceResponse struct {
	Group      string `json:"group"`
	Generation uint64 `json:"generation"`
	// Communities names the matrix axes in order.
	Communities []string `json:"communities"`
	// Events is Table 7 restricted to the group.
	Events []int `json:"events"`
	// Raw is Figure 11: Raw[src][dst], columns summing to 1.
	Raw [][]float64 `json:"raw"`
	// Normalized is Figure 12: influence per source event.
	Normalized [][]float64 `json:"normalized"`
	// TotalExternal is the normalized influence exerted on other
	// communities ("Total Ext"); Total adds the self column.
	TotalExternal []float64 `json:"total_external"`
	Total         []float64 `json:"total"`
}

// reportSectionJSON is one rendered table or figure in a reportResponse.
type reportSectionJSON struct {
	Title string `json:"title"`
	Body  string `json:"body"`
}

// reportResponse answers GET /v1/report: the full memereport document
// (every table and figure of the paper) rendered over the live engine,
// plus the provenance a consumer needs to compare documents across
// reloads. Sections match cmd/memereport's JSON output byte for byte.
type reportResponse struct {
	Generation      uint64              `json:"generation"`
	SnapshotVersion uint32              `json:"snapshot_version"`
	Sections        []reportSectionJSON `json:"sections"`
}

// healthResponse answers GET /v1/healthz (liveness + resident artifact
// shape).
type healthResponse struct {
	Status            string `json:"status"`
	Generation        uint64 `json:"generation"`
	Clusters          int    `json:"clusters"`
	AnnotatedClusters int    `json:"annotated_clusters"`
}

// readyResponse answers GET /v1/readyz. Ready false carries the reason
// slug (closed, journal_degraded).
type readyResponse struct {
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"`
	Generation uint64 `json:"generation"`
}

// clusterJSON is one annotated cluster in a clustersResponse.
type clusterJSON struct {
	ID             int    `json:"id"`
	Community      string `json:"community"`
	Entry          string `json:"entry,omitempty"`
	Images         int    `json:"images"`
	DistinctHashes int    `json:"distinct_hashes"`
	MedoidHash     string `json:"medoid_hash"`
	Annotated      bool   `json:"annotated"`
	Racist         bool   `json:"racist,omitempty"`
	Political      bool   `json:"political,omitempty"`
}

// clustersResponse answers GET /v1/clusters: the resident annotated-cluster
// artifact.
type clustersResponse struct {
	Generation uint64        `json:"generation"`
	Clusters   []clusterJSON `json:"clusters"`
}

// ReloadStatus describes one completed hot swap; it answers
// POST /v1/admin/reload and is returned by Server.Reload.
type ReloadStatus struct {
	Generation uint64        `json:"generation"`
	Clusters   int           `json:"clusters"`
	Duration   time.Duration `json:"-"`
	LoadMS     float64       `json:"load_ms"`
}

// StatsDoc is the GET /v1/statsz response: request counters, hot-swap
// state, overload and ingest counters, decision-log accounting, and the
// resident engine's build-phase RunStats.
type StatsDoc struct {
	UptimeMS          float64       `json:"uptime_ms"`
	Generation        uint64        `json:"generation"`
	LoadedAt          string        `json:"loaded_at"`
	Clusters          int           `json:"clusters"`
	AnnotatedClusters int           `json:"annotated_clusters"`
	Reloads           int64         `json:"reloads"`
	Degraded          bool          `json:"degraded"`
	Requests          RequestStats  `json:"requests"`
	Match             MatchStats    `json:"match"`
	Associate         AssocStats    `json:"associate"`
	Batcher           BatcherStats  `json:"batcher"` // always zero; see BatcherStats
	Overload          OverloadStats `json:"overload"`
	Ingest            IngestStats   `json:"ingest"`
	DecisionLog       DecLogStats   `json:"decision_log"`
	BuildStats        cli.StatsJSON `json:"build_stats"`
}

// OverloadStats surfaces the server's self-protection counters: admission
// sheds, deadline expiries, contained panics, and the live in-flight level
// against its bound.
type OverloadStats struct {
	Shed        int64 `json:"shed"`
	Timeouts    int64 `json:"timeouts"`
	Panics      int64 `json:"panics"`
	InFlight    int   `json:"in_flight"`
	MaxInFlight int   `json:"max_in_flight"`
}

// RequestStats counts requests per endpoint plus total error responses.
type RequestStats struct {
	Associate  int64 `json:"associate"`
	Match      int64 `json:"match"`
	MatchImage int64 `json:"match_image"`
	Ingest     int64 `json:"ingest"`
	Reload     int64 `json:"reload"`
	Influence  int64 `json:"influence"`
	Report     int64 `json:"report"`
	Metrics    int64 `json:"metrics"`
	Errors     int64 `json:"errors"`
}

// MatchStats counts single-hash lookup outcomes across /v1/match and
// /v1/match/image.
type MatchStats struct {
	Matched int64 `json:"matched"`
	Missed  int64 `json:"missed"`
}

// AssocStats counts /v1/associate volume.
type AssocStats struct {
	Posts        int64 `json:"posts"`
	Associations int64 `json:"associations"`
}

// BatcherStats is always zero: /v1/match answers each lookup inline and
// coalesces nothing. The type and StatsDoc.Batcher are kept only because
// the benchmark's memeload decodes them (it skips batch_size_mean when
// Batches is 0); drop both with that reader.
type BatcherStats struct {
	Batches         int64 `json:"batches"`
	BatchedRequests int64 `json:"batched_requests"`
	LargestBatch    int64 `json:"largest_batch"`
	MaxBatch        int   `json:"max_batch"`
}

// IngestStats renders the streaming-ingest subsystem's counters. Enabled is
// false (and everything else zero) when the server runs without an Ingestor.
type IngestStats struct {
	Enabled           bool   `json:"enabled"`
	Ingested          int64  `json:"ingested"`
	Assigned          int64  `json:"assigned"`
	Rejected          int64  `json:"rejected"`
	Pending           int    `json:"pending"`
	Pool              int    `json:"pool"`
	Reclusters        int64  `json:"reclusters"`
	ReclusterFailures int64  `json:"recluster_failures"`
	Compactions       int64  `json:"compactions"`
	DeltaSegments     int    `json:"delta_segments"`
	Seq               uint64 `json:"seq"`
	JournalRetries    int64  `json:"journal_retries"`
	JournalFailures   int64  `json:"journal_failures"`
	TornTails         int64  `json:"torn_tails"`
	Degraded          bool   `json:"degraded"`
}

// DecLogStats renders the decision-log stream's accounting. Enabled is
// false (and everything else zero) when the server runs without a decision
// logger.
type DecLogStats struct {
	Enabled       bool   `json:"enabled"`
	Logged        uint64 `json:"logged"`
	Dropped       uint64 `json:"dropped"`
	Batches       uint64 `json:"batches"`
	Flushed       uint64 `json:"flushed"`
	FlushFailures uint64 `json:"flush_failures"`
	Buffered      int    `json:"buffered"`
}
