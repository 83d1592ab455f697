#!/usr/bin/env bash
# End-to-end serve-path smoke test, run by the CI `smoke` job and runnable
# locally: build a corpus, build + persist an engine snapshot, boot memeserve
# on it, and prove the full query path over HTTP — healthz, a single-hash
# /v1/match, a full-corpus /v1/associate asserted against the memepipeline
# -format json summary, a hot reload via the admin endpoint and via SIGHUP,
# streaming ingest (POST /v1/ingest absorbs novel posts, re-clusters, and
# serves them without a restart; the delta journal replays them across one,
# and /v1/report's sections are the same before and after that restart),
# and a graceful SIGTERM shutdown. The observability layer is exercised on
# the way: /v1/influence and /v1/report answer over the live engine, the
# /v1/metrics Prometheus scrape must agree with /v1/statsz counter for
# counter, and the -decision-log NDJSON stream captured during the run is
# replayed through memereport after shutdown.
#
# ci/pickhash plants a synthetic KYM entry into the corpus before the build:
# the generated corpus draws post hashes from entry galleries, so only a
# planted entry gives the ingest scenario a hash that is both novel to the
# resident clusters and annotatable after a re-cluster.
#
# Requires: go, curl, jq. Association request bodies are assembled from
# posts.jsonl with paste (never re-encoded by jq), so 64-bit pHash integers
# survive verbatim; hashes cross the wire as hex strings.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
  # An if, not `[ ... ] && kill || true`: the A && B || C form would run C
  # whenever the kill itself fails, masking nothing here but tripping
  # shellcheck SC2015's correct observation that it is not if-then-else.
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

step() { echo "== $*"; }

step "building binaries"
mkdir -p "$workdir/bin"
go build -o "$workdir/bin/" ./cmd/memegen ./cmd/memepipeline ./cmd/memeserve ./cmd/memereport ./ci/pickhash

step "generating corpus"
"$workdir/bin/memegen" -out "$workdir/corpus" -profile small >/dev/null

step "planting a novel annotatable hash for the ingest scenario"
novel_hash=$("$workdir/bin/pickhash" -in "$workdir/corpus")
[ -n "$novel_hash" ] || { echo "FAIL: pickhash printed no hash"; exit 1; }

step "building engine, saving snapshot, capturing the reference summary"
"$workdir/bin/memepipeline" -in "$workdir/corpus" -save "$workdir/engine.snap" \
  -format json >"$workdir/pipeline.json"
expected_assoc=$(jq -r '.associations' "$workdir/pipeline.json")
[ "$expected_assoc" -gt 0 ] || { echo "FAIL: pipeline summary reports no associations"; exit 1; }

step "saved snapshot is MEMESNAP v2 (flat, offset-based)"
magic=$(head -c 8 "$workdir/engine.snap")
[ "$magic" = "MEMESNAP" ] || { echo "FAIL: snapshot magic is '$magic', want MEMESNAP"; exit 1; }
snap_version=$(od -An -tu4 -j8 -N4 "$workdir/engine.snap" | tr -d ' ')
[ "$snap_version" = "2" ] || { echo "FAIL: snapshot version is $snap_version, want 2"; exit 1; }

addr=127.0.0.1:18080
step "booting memeserve on $addr"
"$workdir/bin/memeserve" -addr "$addr" -load "$workdir/engine.snap" -in "$workdir/corpus" \
  -ingest-threshold 5 -delta-dir "$workdir/deltas" -compact-after 1 \
  -decision-log "$workdir/decisions.ndjson" -decision-flush 100ms -decision-buffer 65536 &
server_pid=$!

step "waiting for /v1/healthz"
up=""
for _ in $(seq 1 100); do
  if curl -fsS "http://$addr/v1/healthz" >"$workdir/health.json" 2>/dev/null; then
    up=1
    break
  fi
  kill -0 "$server_pid" 2>/dev/null || { echo "FAIL: memeserve exited before becoming healthy"; exit 1; }
  sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: /v1/healthz never came up"; exit 1; }
jq -e '.status == "ok" and .clusters > 0 and .annotated_clusters > 0' "$workdir/health.json" >/dev/null

step "readyz reports the node ready for traffic"
curl -fsS "http://$addr/v1/readyz" >"$workdir/ready.json"
jq -e '.ready == true' "$workdir/ready.json" >/dev/null

step "single-hash /v1/match on an annotated medoid"
curl -fsS "http://$addr/v1/clusters" >"$workdir/clusters.json"
medoid=$(jq -r '[.clusters[] | select(.annotated)][0].medoid_hash' "$workdir/clusters.json")
curl -fsS -X POST -d "{\"hash\":\"$medoid\"}" "http://$addr/v1/match" >"$workdir/match.json"
jq -e '.matched == true and .distance == 0' "$workdir/match.json" >/dev/null
# The winning cluster's medoid must be the queried hash (ties between
# identical medoids resolve to the lowest cluster ID, but the hash is the
# same either way).
winner=$(jq -r '.cluster_id' "$workdir/match.json")
jq -e --argjson id "$winner" --arg h "$medoid" \
  '.clusters[$id].medoid_hash == $h' "$workdir/clusters.json" >/dev/null

step "full-corpus /v1/associate matches the memepipeline summary"
{ printf '{"posts":['; paste -sd, "$workdir/corpus/posts.jsonl"; printf ']}'; } >"$workdir/assoc_req.json"
curl -fsS -X POST --data-binary @"$workdir/assoc_req.json" \
  "http://$addr/v1/associate" >"$workdir/assoc.json"
got_assoc=$(jq -r '.matched' "$workdir/assoc.json")
got_len=$(jq -r '.associations | length' "$workdir/assoc.json")
if [ "$got_assoc" != "$expected_assoc" ] || [ "$got_len" != "$expected_assoc" ]; then
  echo "FAIL: /v1/associate matched $got_assoc ($got_len rows), memepipeline summary says $expected_assoc"
  exit 1
fi

# Ingest is on, so the ingestor owns the served generation: a reload
# publishes the pending pool, and with nothing pending it reports the
# generation already served instead of swapping the boot snapshot back in.
step "hot reload via /v1/admin/reload"
curl -fsS -X POST "http://$addr/v1/admin/reload" >"$workdir/reload.json"
jq -e --argjson n "$(jq '.clusters' "$workdir/health.json")" \
  '.generation == 1 and .clusters == $n' "$workdir/reload.json" >/dev/null

step "hot reload via SIGHUP"
kill -HUP "$server_pid"
reloads=""
for _ in $(seq 1 50); do
  reloads=$(curl -fsS "http://$addr/v1/statsz" | jq -r '.reloads')
  [ "$reloads" = "2" ] && break
  sleep 0.2
done
[ "$reloads" = "2" ] || { echo "FAIL: reloads after SIGHUP = $reloads, want 2"; exit 1; }
gen=$(curl -fsS "http://$addr/v1/healthz" | jq -r '.generation')
[ "$gen" = "1" ] || { echo "FAIL: generation after SIGHUP = $gen, want 1 (nothing pending)"; exit 1; }

step "association results identical after both reloads"
curl -fsS -X POST --data-binary @"$workdir/assoc_req.json" \
  "http://$addr/v1/associate" >"$workdir/assoc_after.json"
if ! diff <(jq -S 'del(.generation)' "$workdir/assoc.json") \
          <(jq -S 'del(.generation)' "$workdir/assoc_after.json") >/dev/null; then
  echo "FAIL: /v1/associate output changed across hot reloads"
  exit 1
fi

step "statsz sanity"
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats.json"
jq -e '.requests.errors == 0 and .reloads == 2 and .requests.associate == 2' "$workdir/stats.json" >/dev/null

step "live /v1/influence answers the Section 5 matrices"
curl -fsS -X POST -d '{"group":"all"}' "http://$addr/v1/influence" >"$workdir/influence.json"
jq -e '.group == "all" and (.communities | length) == 5 and (.raw | length) == 5
       and (.total | length) == 5' "$workdir/influence.json" >/dev/null

step "live /v1/report renders the full document"
curl -fsS "http://$addr/v1/report" >"$workdir/report.json"
jq -e '(.sections | length) > 0 and .generation == 1' "$workdir/report.json" >/dev/null

step "/v1/metrics scrape agrees with /v1/statsz"
# statsz first, then the scrape: the scrape bumps only its own counter, so
# every counter asserted below is identical in both views by construction.
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats_pre_scrape.json"
curl -fsS "http://$addr/v1/metrics" >"$workdir/metrics.txt"
grep -q '^# TYPE memes_requests_total counter' "$workdir/metrics.txt" \
  || { echo "FAIL: scrape is not Prometheus text format"; exit 1; }
metric() { awk -v m="$1" '$1 == m {print $2}' "$workdir/metrics.txt"; }
for pair in \
  'memes_requests_total{endpoint="associate"} .requests.associate' \
  'memes_requests_total{endpoint="match"} .requests.match' \
  'memes_requests_total{endpoint="influence"} .requests.influence' \
  'memes_requests_total{endpoint="report"} .requests.report' \
  'memes_requests_total{endpoint="clusters"} .requests.clusters' \
  'memes_errors_total .requests.errors' \
  'memes_match_total{outcome="matched"} .match.matched' \
  'memes_match_total{outcome="missed"} .match.missed' \
  'memes_associate_posts_total .associate.posts' \
  'memes_associations_total .associate.associations' \
  'memes_reloads_total .reloads' \
  'memes_engine_generation .generation' \
  'memes_clusters .clusters' \
  'memes_decision_log_dropped_total .decision_log.dropped'; do
  name=${pair% *}
  field=${pair#* }
  got=$(metric "$name")
  want=$(jq -r "$field" "$workdir/stats_pre_scrape.json")
  if [ "$got" != "$want" ]; then
    echo "FAIL: $name = $got, statsz $field = $want"
    exit 1
  fi
done
# The latency histogram saw the traffic: the match endpoint's +Inf bucket
# equals its request counter.
hist=$(metric 'memes_request_duration_seconds_bucket{endpoint="match",le="+Inf"}')
want=$(jq -r '.requests.match' "$workdir/stats_pre_scrape.json")
[ "$hist" = "$want" ] || { echo "FAIL: match histogram count $hist, want $want"; exit 1; }
# The ladder reaches below a lookup's latency: its first bucket is 10µs.
[ -n "$(metric 'memes_request_duration_seconds_bucket{endpoint="match",le="1e-05"}')" ] \
  || { echo "FAIL: match histogram has no le=1e-05 bucket"; exit 1; }
jq -e '.decision_log.enabled == true and .decision_log.logged > 0 and .decision_log.dropped == 0' \
  "$workdir/stats_pre_scrape.json" >/dev/null \
  || { echo "FAIL: decision log lost entries: $(jq -c '.decision_log' "$workdir/stats_pre_scrape.json")"; exit 1; }

step "streaming ingest: novel hash is unmatched before ingest"
printf '{"hash":%s}' "$novel_hash" >"$workdir/novel_match_req.json"
curl -fsS -X POST --data-binary @"$workdir/novel_match_req.json" \
  "http://$addr/v1/match" >"$workdir/novel_before.json"
jq -e '.matched == false' "$workdir/novel_before.json" >/dev/null

step "POST /v1/ingest: 5 novel posts cross the re-cluster threshold"
# Bodies are assembled with printf, same as the associate path: the 64-bit
# decimal pHash must never pass through jq's float arithmetic.
posts=""
for i in 0 1 2 3 4; do
  posts="$posts{\"id\":$((9000000 + i)),\"community\":0,\"timestamp\":\"2026-01-01T00:00:00Z\",\"has_image\":true,\"phash\":$novel_hash,\"truth_meme\":-1,\"truth_root\":-1},"
done
printf '{"posts":[%s]}' "${posts%,}" >"$workdir/ingest_req.json"
curl -fsS -X POST --data-binary @"$workdir/ingest_req.json" \
  "http://$addr/v1/ingest" >"$workdir/ingest.json"
jq -e '.accepted == 5 and .assigned == 0 and .pending == 5 and .triggered == true' \
  "$workdir/ingest.json" >/dev/null

step "ingested hash becomes servable without a restart"
matched=""
for _ in $(seq 1 150); do
  curl -fsS -X POST --data-binary @"$workdir/novel_match_req.json" \
    "http://$addr/v1/match" >"$workdir/novel_after.json"
  if jq -e '.matched == true and .entry == "synthetic-novel-meme"' \
    "$workdir/novel_after.json" >/dev/null; then
    matched=1
    break
  fi
  sleep 0.2
done
[ -n "$matched" ] || { echo "FAIL: ingested hash never became matchable"; exit 1; }

step "statsz ingest counters moved"
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats_ingest.json"
jq -e '.ingest.enabled == true and .ingest.ingested == 5 and .ingest.reclusters >= 1
       and .ingest.pending == 0 and .ingest.seq == 5
       and .requests.ingest == 1 and .requests.errors == 0' \
  "$workdir/stats_ingest.json" >/dev/null

step "reload under ingest keeps the ingested hash servable"
gen=$(curl -fsS "http://$addr/v1/healthz" | jq -r '.generation')
curl -fsS -X POST "http://$addr/v1/admin/reload" >"$workdir/reload_ingest.json"
jq -e --argjson g "$gen" '.generation == $g' "$workdir/reload_ingest.json" >/dev/null \
  || { echo "FAIL: reload under ingest moved generation $gen: $(cat "$workdir/reload_ingest.json")"; exit 1; }
curl -fsS -X POST --data-binary @"$workdir/novel_match_req.json" \
  "http://$addr/v1/match" >"$workdir/novel_reloaded.json"
jq -e '.matched == true and .entry == "synthetic-novel-meme"' "$workdir/novel_reloaded.json" >/dev/null \
  || { echo "FAIL: ingested hash stopped matching after a reload"; exit 1; }

step "ingest compaction emits a v2 base snapshot"
base=""
for _ in $(seq 1 150); do
  base=$(ls "$workdir/deltas"/base-*.snap 2>/dev/null | tail -n1)
  [ -n "$base" ] && break
  sleep 0.2
done
[ -n "$base" ] || { echo "FAIL: compaction never wrote a base snapshot"; exit 1; }
base_version=$(od -An -tu4 -j8 -N4 "$base" | tr -d ' ')
[ "$base_version" = "2" ] || { echo "FAIL: compacted base $base is version $base_version, want 2"; exit 1; }
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats_compact.json"
jq -e '.ingest.compactions >= 1' "$workdir/stats_compact.json" >/dev/null
# The report over the ingested corpus, kept to compare with the restarted
# node's: a restart must not change what the analysis endpoints answer.
curl -fsS "http://$addr/v1/report" >"$workdir/report_compacted.json"

step "restart: the compacted base + journal replay the ingested posts, and the report is unchanged"
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "FAIL: memeserve exited non-zero on SIGTERM before restart"
  exit 1
fi
server_pid=""

step "decision log: the captured stream replays through memereport"
# The drained server flushed every decision: the two full-corpus associate
# runs must be in the file, one decision per post per request.
post_count=$(wc -l <"$workdir/corpus/posts.jsonl")
assoc_decisions=$(jq -s '[.[] | select(.endpoint == "associate")] | length' "$workdir/decisions.ndjson")
if [ "$assoc_decisions" != "$((2 * post_count))" ]; then
  echo "FAIL: decision log holds $assoc_decisions associate decisions, want $((2 * post_count))"
  exit 1
fi
jq -s -e '[.[] | select(.endpoint == "match")] | length > 0' "$workdir/decisions.ndjson" >/dev/null
"$workdir/bin/memereport" -in "$workdir/corpus" -replay "$workdir/decisions.ndjson" \
  -format timeseries >"$workdir/replay.txt" 2>"$workdir/replay.log"
grep -q 'Per-day meme activity' "$workdir/replay.txt" \
  || { echo "FAIL: replayed memereport produced no timeseries table"; exit 1; }
grep -q 'replay: ' "$workdir/replay.log" \
  || { echo "FAIL: memereport -replay reported no replay summary"; exit 1; }

"$workdir/bin/memeserve" -addr "$addr" -load "$workdir/engine.snap" -in "$workdir/corpus" \
  -ingest-threshold 5 -delta-dir "$workdir/deltas" -compact-after 1 &
server_pid=$!
up=""
for _ in $(seq 1 150); do
  if curl -fsS "http://$addr/v1/healthz" >/dev/null 2>&1; then
    up=1
    break
  fi
  kill -0 "$server_pid" 2>/dev/null || { echo "FAIL: restarted memeserve exited before becoming healthy"; exit 1; }
  sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: restarted memeserve never came up"; exit 1; }
curl -fsS -X POST --data-binary @"$workdir/novel_match_req.json" \
  "http://$addr/v1/match" >"$workdir/novel_replayed.json"
jq -e '.matched == true and .entry == "synthetic-novel-meme"' "$workdir/novel_replayed.json" >/dev/null
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats_replayed.json"
jq -e '.ingest.enabled == true and .ingest.seq == 5' "$workdir/stats_replayed.json" >/dev/null
curl -fsS "http://$addr/v1/report" >"$workdir/report_replayed.json"
if ! diff <(jq '.sections' "$workdir/report_compacted.json") \
          <(jq '.sections' "$workdir/report_replayed.json") >/dev/null; then
  echo "FAIL: /v1/report sections differ after the restart from the compacted base"
  exit 1
fi

step "graceful shutdown on SIGTERM"
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "FAIL: memeserve exited non-zero on SIGTERM"
  exit 1
fi
server_pid=""

# --- degraded-journal scenario (chaos build) ---------------------------------
# A -tags faults build arms an injected journal failure whose budget equals
# exactly one append's retry budget: the first ingest exhausts it and flips
# the node into read-only degraded mode (503 journal_degraded + Retry-After,
# readyz drains it, queries keep answering), and the next ingest finds the
# journal healthy again and clears the flag — recovery without a restart.

step "chaos build: booting memeserve -tags faults with an armed journal fault"
go build -tags faults -o "$workdir/bin/memeserve-faults" ./cmd/memeserve
"$workdir/bin/memeserve-faults" -addr "$addr" -load "$workdir/engine.snap" -in "$workdir/corpus" \
  -ingest-threshold 1000000 -delta-dir "$workdir/deltas-degraded" \
  -faults 'journal.append.write=error,times=3' &
server_pid=$!
up=""
for _ in $(seq 1 150); do
  if curl -fsS "http://$addr/v1/healthz" >/dev/null 2>&1; then
    up=1
    break
  fi
  kill -0 "$server_pid" 2>/dev/null || { echo "FAIL: chaos memeserve exited before becoming healthy"; exit 1; }
  sleep 0.2
done
[ -n "$up" ] || { echo "FAIL: chaos memeserve never came up"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/readyz")
[ "$code" = "200" ] || { echo "FAIL: readyz before the fault = $code, want 200"; exit 1; }

step "ingest exhausts the journal retry budget: clean 503 + Retry-After + reason"
code=$(curl -s -D "$workdir/degraded_hdrs" -o "$workdir/ingest_degraded.json" -w '%{http_code}' \
  -X POST --data-binary @"$workdir/ingest_req.json" "http://$addr/v1/ingest")
[ "$code" = "503" ] || { echo "FAIL: ingest during fault = $code, want 503"; exit 1; }
grep -qi '^retry-after: 1' "$workdir/degraded_hdrs" \
  || { echo "FAIL: degraded 503 carries no Retry-After"; exit 1; }
jq -e '.reason == "journal_degraded"' "$workdir/ingest_degraded.json" >/dev/null

step "degraded node: readyz drains it, healthz and queries keep answering"
code=$(curl -s -o "$workdir/ready_degraded.json" -w '%{http_code}' "http://$addr/v1/readyz")
[ "$code" = "503" ] || { echo "FAIL: readyz while degraded = $code, want 503"; exit 1; }
jq -e '.ready == false and .reason == "journal_degraded"' "$workdir/ready_degraded.json" >/dev/null
curl -fsS "http://$addr/v1/healthz" >/dev/null
curl -fsS -X POST -d "{\"hash\":\"$medoid\"}" "http://$addr/v1/match" >"$workdir/match_degraded.json"
jq -e '.matched == true' "$workdir/match_degraded.json" >/dev/null
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats_degraded.json"
jq -e '.degraded == true and .ingest.degraded == true
       and .ingest.journal_retries == 2 and .ingest.journal_failures == 1' \
  "$workdir/stats_degraded.json" >/dev/null

step "journal heals: the next ingest succeeds and readiness recovers"
curl -fsS -X POST --data-binary @"$workdir/ingest_req.json" \
  "http://$addr/v1/ingest" >"$workdir/ingest_healed.json"
jq -e '.accepted == 5 and .seq == 5' "$workdir/ingest_healed.json" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/readyz")
[ "$code" = "200" ] || { echo "FAIL: readyz after heal = $code, want 200"; exit 1; }
curl -fsS "http://$addr/v1/statsz" >"$workdir/stats_healed.json"
jq -e '.degraded == false and .ingest.degraded == false' "$workdir/stats_healed.json" >/dev/null

step "chaos build: graceful shutdown"
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "FAIL: chaos memeserve exited non-zero on SIGTERM"
  exit 1
fi
server_pid=""

echo "SMOKE PASSED: healthz, readyz, match, associate ($expected_assoc associations), influence + report + metrics/statsz agreement, 2 hot reloads, ingest + v2 compaction + journal replay, decision-log capture + memereport replay, degraded-journal read-only mode + self-heal, graceful shutdown"
