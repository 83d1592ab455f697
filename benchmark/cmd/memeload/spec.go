//go:build linux

package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end number each is expected to move.
// BENCHMARK.json at the repository root states the same lists for the
// driver; spec_test.go fails when the two disagree.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one end-to-end metric: every workload reports every one of
// them, with the per-workload meaning given in README.md.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerSpec is one per-layer metric. Moves is the prediction written down
// before measuring: the end-to-end metric and workload the layer should
// move when it gets faster. It is documentation, not part of BENCHMARK.json.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// runSeconds is the timed window the driver gives every run (--seconds).
const runSeconds = 12

const (
	wlMatchSmall     = "match_small"
	wlAssociateSmall = "associate_small"
	wlAssociateLarge = "associate_large"
	wlIngestMixed    = "ingest_mixed"
	wlBuildReport    = "build_report"
)

var workloads = []workloadSpec{
	{wlMatchSmall, "interactive single-hash lookups: a closed-loop saturation phase then 8,000 req/s open loop; JSON, middleware, batcher, decision log and net/http are the cost, the index does almost nothing"},
	{wlAssociateSmall, "the paper's Step 6 bulk job, 1,024-post bodies on the 147-cluster snapshot, closed loop: encoding/json decode dominates, so a wire decoder shows here and not in associate_large"},
	{wlAssociateLarge, "same endpoint, batch size and clients on the 4,698-cluster snapshot: the BK-tree probe dominates the request, so index and phash work shows here and must not move associate_small"},
	{wlIngestMixed, "writes beside reads: paced 8-post ingest batches on one connection and paced lookups on another, so journal fsync, re-cluster, hot swap and compaction run under query traffic"},
	{wlBuildReport, "the researcher's offline path with no server: image hashing, engine builds, snapshot round trips and the full report, so serve-path work predicts no change here"},
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// layers lists the per-layer metrics of the traced pass, grouped by the
// module they time. Every traced run reports every one of them: the layer
// table does not depend on the workload, only the loaded-window counters
// (marked "window") and the onion written to out/trace-<workload>.json do.
var layers = []layerSpec{
	// phash
	{"phash.hash_image_us", "us", "lower", "throughput_rps@build_report"},
	{"phash.neighbourhoods_ms", "ms", "lower", "cpu_ms_per_req@build_report, setup_s; lat_p50_ms@build_report through the Table 8 sweep"},
	{"phash.neighbour_pairs", "count", "lower", "cpu_ms_per_req@build_report (work done, not time)"},
	{"phash.nearest_small_ns", "ns", "lower", "no move on *_small (index is <2% of a match)"},
	{"phash.nearest_large_ns", "ns", "lower", "throughput_rps@associate_large"},
	// cluster
	{"cluster.dbscan_w1_ms", "ms", "lower", "cpu_ms_per_req@build_report"},
	{"cluster.dbscan_wn_ms", "ms", "lower", "cpu_ms_per_req@build_report, setup_s"},
	{"cluster.medoids_ms", "ms", "lower", "cpu_ms_per_req@build_report"},
	{"cluster.incremental_extend_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req@ingest_mixed"},
	// annotate
	{"annotate.batch_ms", "ms", "lower", "cpu_ms_per_req@build_report (0.3% of a build today)"},
	// index, all on the large corpus's annotated medoids
	{"index.bktree_radius_ns", "ns", "lower", "throughput_rps@associate_large"},
	{"index.multiindex_radius_ns", "ns", "lower", "throughput_rps@associate_large if it became the default"},
	{"index.sharded_radius_ns", "ns", "lower", "throughput_rps@associate_large if it became the default"},
	// pipeline
	{"pipeline.stage_neighbours_ms", "ms", "lower", "cpu_ms_per_req@build_report, setup_s"},
	{"pipeline.stage_cluster_ms", "ms", "lower", "cpu_ms_per_req@build_report, setup_s"},
	{"pipeline.stage_annotate_ms", "ms", "lower", "cpu_ms_per_req@build_report"},
	{"pipeline.build_w1_ms", "ms", "lower", "cpu_ms_per_req@build_report"},
	{"pipeline.build_wn_ms", "ms", "lower", "setup_s everywhere"},
	{"pipeline.build_scaling_eff", "share", "higher", "setup_s"},
	{"pipeline.match_small_ns", "ns", "lower", "no move: <2% of lat_p50_ms@match_small"},
	{"pipeline.match_large_ns", "ns", "lower", "throughput_rps@associate_large"},
	{"pipeline.associate_small_us", "us", "lower", "throughput_rps@associate_small (about 15% of the request)"},
	{"pipeline.associate_large_us", "us", "lower", "throughput_rps@associate_large (about 85% of the request)"},
	{"pipeline.save_v2_us", "us", "lower", "setup_s"},
	{"pipeline.load_v2_us", "us", "lower", "setup_s"},
	{"pipeline.load_v1_us", "us", "lower", "nothing served: v1 is read-only compatibility"},
	{"pipeline.snapshot_v2_bytes", "count", "lower", "setup_s, rss_mb"},
	{"pipeline.incremental_rebuild_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req@ingest_mixed"},
	{"pipeline.save_delta_us", "us", "lower", "lat_p50_ms@ingest_mixed"},
	{"pipeline.result_ms", "ms", "lower", "lat_p50_ms@build_report"},
	// memes
	{"memes.hot_swap_ns", "ns", "lower", "throughput_rps@ingest_mixed"},
	// server: the handler in process through httptest.NewRecorder, no socket
	{"server.handler_match_us", "us", "lower", "throughput_rps, lat_p50_ms, cpu_ms_per_req@match_small"},
	{"server.handler_match_bare_us", "us", "lower", "same, with admission, deadline and decision log off"},
	{"server.middleware_us", "us", "lower", "cpu_ms_per_req@match_small"},
	{"server.handler_associate_small_us", "us", "lower", "throughput_rps, lat_p50_ms@associate_small"},
	{"server.handler_associate_large_us", "us", "lower", "throughput_rps, lat_p50_ms@associate_large"},
	{"server.handler_ingest_us", "us", "lower", "lat_p50_ms@ingest_mixed"},
	{"server.json_decode_match_ns", "ns", "lower", "cpu_ms_per_req@match_small"},
	{"server.json_decode_posts_us", "us", "lower", "throughput_rps@associate_small"},
	{"server.json_encode_assoc_us", "us", "lower", "throughput_rps@associate_small"},
	{"server.allocs_per_match", "count", "lower", "cpu_ms_per_req@match_small"},
	{"server.allocs_per_associate", "count", "lower", "cpu_ms_per_req@associate_small"},
	{"server.hist_mean_match_us", "us", "lower", "lat_p50_ms@match_small"},
	{"server.client_minus_server_mean_us", "us", "lower", "lat_p50_ms@match_small (transport + queue)"},
	{"server.batch_size_mean", "count", "higher", "window: loadgen.lat_p99_ms@match_small; stays about 1 with nproc clients"},
	{"server.shed", "count", "lower", "window: failed"},
	// declog and metrics
	{"declog.log_ns", "ns", "lower", "cpu_ms_per_req@match_small, associate_small"},
	{"declog.dropped_share", "share", "lower", "window: cpu_ms_per_req (a dropped decision is not encoded)"},
	{"metrics.observe_ns", "ns", "lower", "cpu_ms_per_req@match_small"},
	{"metrics.scrape_us", "us", "lower", "nothing gated: scrapes are outside the windows"},
	// ingest
	{"ingest.ingest_8_us", "us", "lower", "lat_p50_ms@ingest_mixed"},
	{"ingest.ingest_8_nojournal_us", "us", "lower", "difference to ingest_8_us is the fsync"},
	{"ingest.recluster_ms", "ms", "lower", "throughput_rps, cpu_ms_per_req@ingest_mixed"},
	{"ingest.replay_ms", "ms", "lower", "setup_s after a restart"},
	{"ingest.reclusters", "count", "lower", "window: cpu_ms_per_req@ingest_mixed"},
	{"ingest.compactions", "count", "lower", "window: throughput_rps@ingest_mixed"},
	{"ingest.rejected_share", "share", "lower", "window: failed@ingest_mixed"},
	// hawkes and analysis
	{"hawkes.fit_ms", "ms", "lower", "lat_p50_ms@build_report"},
	{"analysis.influence_ms", "ms", "lower", "lat_p50_ms@build_report"},
	{"analysis.influence_groups_ms", "ms", "lower", "lat_p50_ms@build_report"},
	{"analysis.table8_ms", "ms", "lower", "lat_p50_ms@build_report"},
	{"analysis.figure19_ms", "ms", "lower", "lat_p50_ms@build_report"},
	{"analysis.sections_other_ms", "ms", "lower", "lat_p50_ms@build_report"},
	// dataset
	{"dataset.generate_small_ms", "ms", "lower", "setup_s"},
	{"dataset.generate_large_ms", "ms", "lower", "setup_s@associate_large"},
	{"dataset.save_large_ms", "ms", "lower", "setup_s@associate_large"},
	{"dataset.load_large_ms", "ms", "lower", "setup_s@associate_large"},
	// memeserve: the process and net/http
	{"memeserve.boot_small_ms", "ms", "lower", "setup_s"},
	{"memeserve.boot_large_ms", "ms", "lower", "setup_s@associate_large"},
	{"memeserve.replay_boot_ms", "ms", "lower", "restart after ingest"},
	{"memeserve.drain_ms", "ms", "lower", "restart after ingest"},
	{"memeserve.transport_match_us", "us", "lower", "lat_p50_ms@match_small"},
	// the harness itself
	{"loadgen.lat_p90_ms", "ms", "lower", "window: the tail of lat_p50_ms's requests (per-image HashImage in build_report); too unsteady here to gate"},
	{"loadgen.lat_p99_ms", "ms", "lower", "window: the same, further out"},
	{"loadgen.sched_lag_p99_us", "us", "lower", "the generator's own lateness; not charged to open-loop latencies"},
	{"loadgen.cpu_share", "share", "lower", "window: the generator competes with the server for cores"},
	{"trace.overhead_share", "share", "lower", "window: what recording spans costs the untraced numbers"},
}
