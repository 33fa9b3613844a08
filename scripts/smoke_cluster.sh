#!/usr/bin/env bash
# Multi-process smoke test of cluster mode (docs/SERVER.md): two
# worker daemons, one coordinator, and one single-node daemon over a
# real sharded corpus, all as separate OS processes talking TCP.
# Verifies
#   - coordinator analyze/mine/impact are byte-identical to the
#     single-node answers over the same corpus,
#   - `tracelens cluster-status` reports a healthy fleet (exit 0),
#   - the coordinator's --metrics-listen endpoint serves Prometheus
#     text exposition format over plain HTTP,
#   - `tracelens cluster-trace` stitches one request's spans across
#     the coordinator and both workers under a single trace id
#     (docs/TELEMETRY.md), with resolvable cross-node parent edges,
#   - a server error response makes `tracelens query` exit nonzero,
#   - killing one worker mid-session degrades to a replica retry with
#     a still byte-identical answer,
#   - killing the whole fleet degrades to a structured
#     "partial_results" response instead of a hang, and
#     cluster-status then exits nonzero,
#   - the coordinator's --self-trace-corpus drain output is a valid
#     TLC1 corpus that `tracelens analyze` accepts (the self-analysis
#     loop: tracelens analyzing tracelens).
#
# Usage: smoke_cluster.sh /path/to/tracelens
set -euo pipefail

CLI="${1:?usage: smoke_cluster.sh /path/to/tracelens}"

# Ephemeral-port daemon management (shared with smoke_server.sh).
. "$(dirname "${BASH_SOURCE[0]}")/lib_serve.sh"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/tracelens_cluster.XXXXXX")"
cleanup() {
    tl_stop_all_daemons
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "smoke_cluster: FAIL: $*" >&2; exit 1; }

# 16 shards, not 4: consistent hashing owes no fairness, and with 4
# shards one worker ends up owning all of them often enough to make
# the stitched-trace check below (spans on BOTH workers) flaky.
"$CLI" generate --out "$WORK/corpus" --machines 12 --seed 7171 \
    --shards 16 >/dev/null 2>&1 || fail "corpus generation"

# --self-trace-corpus turns span recording on in every fleet member,
# so the stitched cluster-trace below actually has spans to stitch and
# the coordinator leaves a TLC1 corpus behind for the self-analysis
# check at the end. --workers 2 runs two request workers per daemon,
# so the cross-node parent-edge check covers requests on either
# worker thread.
tl_start_daemon w1 --workers 2 --log-level warn \
    --self-trace-corpus "$WORK/st_w1" || fail "worker 1 startup"
tl_start_daemon w2 --workers 2 --log-level warn \
    --self-trace-corpus "$WORK/st_w2" || fail "worker 2 startup"
tl_start_daemon coord --workers 2 --coordinator \
    --cluster-workers "$w1_ADDR,$w2_ADDR" --shard-deadline-ms 5000 \
    --metrics-listen 127.0.0.1:0 \
    --metrics-port-file "$WORK/coord.metricsport" \
    --self-trace-corpus "$WORK/st_coord" \
    --log-level warn || fail "coordinator startup"
tl_start_daemon single --log-level warn || fail "single-node startup"

ANALYZE="{\"corpus\":\"$WORK/corpus\",\"scenario\":\"BrowserTabCreate\"}"
MINE="$ANALYZE"
IMPACT="{\"corpus\":\"$WORK/corpus\"}"

# The healthy fleet answers cluster-status with exit 0.
"$CLI" cluster-status --connect "$coord_ADDR" >/dev/null \
    || fail "cluster-status on a healthy fleet"

# Scatter/gather must be invisible in the payload: every report the
# coordinator merges from per-shard partials is byte-identical to the
# single-node answer over the same corpus.
for method in analyze mine impact; do
    params="$ANALYZE"
    [[ "$method" == impact ]] && params="$IMPACT"
    COORD_OUT="$("$CLI" query "$method" --connect "$coord_ADDR" \
        --params "$params")" || fail "$method via coordinator"
    SINGLE_OUT="$("$CLI" query "$method" --connect "$single_ADDR" \
        --params "$params")" || fail "$method via single node"
    [[ "$COORD_OUT" == "$SINGLE_OUT" ]] \
        || fail "$method: coordinator differs from single-node"
    echo "$COORD_OUT" | grep -q '"partial_results"' \
        && fail "$method: full gather must not carry partial_results"
done

# The metrics endpoint speaks Prometheus text exposition format over
# plain HTTP: TYPE headers for the request counter and summary
# quantiles for the latency histogram.
METRICS_PORT="$(cat "$WORK/coord.metricsport")"
[[ -n "$METRICS_PORT" ]] || fail "coordinator never wrote its metrics port"
EXPO="$(curl -sf --max-time 10 "http://127.0.0.1:$METRICS_PORT/metrics")" \
    || fail "curl of the metrics endpoint"
echo "$EXPO" | grep -q '^# TYPE tracelens_server_requests counter$' \
    || fail "exposition lacks the requests counter TYPE header"
echo "$EXPO" | grep -q 'quantile="0.99"' \
    || fail "exposition lacks summary quantiles"

# cluster-status --metrics merges worker registries into one snapshot.
"$CLI" cluster-status --connect "$coord_ADDR" --metrics >/dev/null \
    || fail "cluster-status --metrics"

# The flight recorder answers over the wire with its bounded ring.
"$CLI" query flight_recorder --connect "$coord_ADDR" \
    | grep -q '"total"' || fail "flight_recorder query"

# One request, one trace: the analyze queries above all rooted fresh
# trace ids at the CLI. The stitched cluster-trace must be valid
# Chrome JSON in which at least one trace id crosses the coordinator
# and both workers (three distinct pids) with cross-node parent edges
# that resolve to a span on another node.
"$CLI" cluster-trace --connect "$coord_ADDR" \
    --out "$WORK/stitched.json" >/dev/null \
    || fail "cluster-trace while the fleet is healthy"
python3 - "$WORK/stitched.json" <<'PYEOF' || fail "stitched trace validation"
import json, sys, collections

doc = json.load(open(sys.argv[1]))
events = doc if isinstance(doc, list) else doc.get("traceEvents", [])
meta = [e for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"]
assert len(meta) >= 3, "want process_name metadata for all 3 nodes"
spans = [e for e in events if e.get("ph") == "X"]
assert len({e["pid"] for e in spans}) >= 3, "want spans from 3 nodes"

by_trace = collections.defaultdict(list)
for e in spans:
    args = e.get("args", {})
    if args.get("trace_id"):
        by_trace[args["trace_id"]].append(e)
wide = [t for t, es in by_trace.items()
        if len({e["pid"] for e in es}) >= 3]
assert wide, "no single trace id crosses coordinator and both workers"

# Cross-node parent edges resolve: some span's parent_span_id names a
# span that lives on a different pid in the same trace.
for trace_id in wide:
    owner = {e["args"]["span_id"]: e["pid"] for e in by_trace[trace_id]}
    if any(e["args"].get("parent_span_id") in owner
           and owner[e["args"]["parent_span_id"]] != e["pid"]
           for e in by_trace[trace_id]):
        break
else:
    raise AssertionError("no resolvable cross-node parent edge")
PYEOF

# A server error response (scenario absent everywhere) must exit
# nonzero from both roles.
if "$CLI" query analyze --connect "$coord_ADDR" \
    --params "{\"corpus\":\"$WORK/corpus\",\"scenario\":\"NoSuchScenario\",\"tfast_ms\":100,\"tslow_ms\":500}" \
    >/dev/null 2>&1; then
    fail "coordinator error response should exit nonzero"
fi
if "$CLI" query analyze --connect "$single_ADDR" \
    --params "{\"corpus\":\"$WORK/corpus\",\"scenario\":\"NoSuchScenario\",\"tfast_ms\":100,\"tslow_ms\":500}" \
    >/dev/null 2>&1; then
    fail "single-node error response should exit nonzero"
fi

BASELINE="$("$CLI" query analyze --connect "$coord_ADDR" \
    --params "$ANALYZE")" || fail "baseline analyze"

# Kill one worker: its shards must be retried on the replica and the
# answer must not change by a byte.
tl_stop_daemon w1
RETRIED="$("$CLI" query analyze --connect "$coord_ADDR" \
    --params "$ANALYZE")" || fail "analyze after killing worker 1"
[[ "$RETRIED" == "$BASELINE" ]] \
    || fail "retried answer differs from baseline"

# Kill the other worker too: no owner, no replica. The query must
# come back inside the deadline as a structured degraded response,
# never a hang or a corrupt merge.
tl_stop_daemon w2
DEGRADED="$("$CLI" query analyze --connect "$coord_ADDR" \
    --deadline-ms 30000 --params "$ANALYZE")" \
    || fail "degraded analyze should still answer ok"
echo "$DEGRADED" | grep -q '"partial_results":true' \
    || fail "degraded answer must carry partial_results:true"
echo "$DEGRADED" | grep -q '"missing_shards"' \
    || fail "degraded answer must list missing shards"

# And cluster-status now reports the outage with a nonzero exit.
if "$CLI" cluster-status --connect "$coord_ADDR" >/dev/null 2>&1; then
    fail "cluster-status should exit nonzero with workers down"
fi

# Self-analysis loop: a graceful coordinator stop drains its span
# buffer into a TLC1 corpus, and that corpus is a first-class input to
# the analyzer — every "server.request" span became a
# "request:<method>" scenario instance.
tl_stop_daemon coord
[[ -s "$WORK/st_coord/self-trace.tlc" ]] \
    || fail "coordinator left no self-trace corpus behind"
"$CLI" analyze "$WORK/st_coord/self-trace.tlc" \
    --scenario "request:analyze" --tfast 0.01 --tslow 60000 \
    >/dev/null || fail "analyze over the self-trace corpus"

echo "smoke_cluster: OK (coordinator port $coord_PORT)"
