#!/usr/bin/env bash
# End-to-end smoke test of continuous fleet mode: start the real
# daemon in --watch mode, drip-feed shards into its spool with the
# real generator, and assert the three contracts that matter:
#
#  1. The rolling window summary is byte-identical to a cold batch
#     `analyze` over the same shard files.
#  2. `ingest_push` lands shards in the spool via rename-into-place.
#     After that push, and after a shard the poll thread picks up,
#     `analyze` over the spool, unfiltered and with a component
#     filter, still equals the rolling summary, and `ingest` counts
#     every spool shard: an arrival retires the sessions over the
#     spool, and the next request opens them over the new corpus.
#  3. An injected regression cohort produces a sentinel alert end to
#     end: on the `alerts` method and in the --alerts-out JSONL sink.
#  4. `tracelens watch` with a one-minute poll interval still exits
#     within 2 s of SIGINT.
#
# Usage: smoke_fleet.sh /path/to/tracelens
set -euo pipefail

CLI="${1:?usage: smoke_fleet.sh /path/to/tracelens}"

# Ephemeral-port daemon management (shared with smoke_server.sh).
. "$(dirname "${BASH_SOURCE[0]}")/lib_serve.sh"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/tracelens_fleet_smoke.XXXXXX")"
SPOOL="$WORK/spool"
mkdir -p "$SPOOL"
WATCH_PID=""
cleanup() {
    tl_stop_all_daemons
    [[ -z "$WATCH_PID" ]] || kill -KILL "$WATCH_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "smoke_fleet: FAIL: $*" >&2; exit 1; }

# --max-line-bytes: ingest_push carries whole shards as base64, which
# outgrows the default 1 MiB request frame.
tl_start_daemon srv --workers 2 --watch "$SPOOL" --poll-ms 50 \
    --alerts-out "$WORK/alerts.jsonl" \
    --max-line-bytes $((64 * 1024 * 1024)) || fail "daemon startup"
ADDR="$srv_ADDR"

# health advertises continuous mode and the fleet revision.
HEALTH="$("$CLI" query health --connect "$ADDR")"
echo "$HEALTH" | grep -q '"fleet_revision"' \
    || fail "health lacks fleet_revision"
echo "$HEALTH" | grep -q '"fleet_watch"' || fail "health lacks fleet_watch"
REV="$("$CLI" query health --connect "$ADDR" --field fleet_revision)"

# ---- 1. drip-feed while the daemon watches --------------------------
"$CLI" generate --drip "$SPOOL" --interval-ms 60 --shards 4 \
    --machines 16 --seed 7 >/dev/null 2>&1 || fail "drip generation"

# wait_for_shards N: until the windows hold N shards.
wait_for_shards() {
    local shards _tick
    for _tick in $(seq 1 100); do
        shards="$("$CLI" query window_summary --connect "$ADDR" \
            --params '{"scenario":"FileOpen","windows":"all"}' \
            --field shards 2>/dev/null || echo 0)"
        [[ "$shards" == "$1" ]] && return 0
        sleep 0.1
    done
    fail "daemon ingested $shards of $1 shards"
}
wait_for_shards 4

# The rolling summary and a cold batch analyze over the very same
# shard files must agree byte for byte.
ROLLING="$("$CLI" query window_summary --connect "$ADDR" \
    --params '{"scenario":"FileOpen","windows":"all"}' --field summary)"
BATCH="$("$CLI" query analyze --connect "$ADDR" \
    --params "{\"corpus\":\"$SPOOL\",\"scenario\":\"FileOpen\"}")"
[[ "$ROLLING" == "$BATCH" ]] \
    || fail "rolling summary differs from batch analyze"

# A second session over the spool, opened with a component filter.
SYS_PARAMS="{\"corpus\":\"$SPOOL\",\"scenario\":\"FileOpen\",\"components\":[\"*.sys\"]}"
[[ "$("$CLI" query analyze --connect "$ADDR" --params "$SYS_PARAMS")" \
    == "$BATCH" ]] || fail "*.sys analyze differs from batch analyze"

# check_spool_sessions WHEN: both sessions over the spool answer for
# every shard in it, and so does `ingest`.
check_spool_sessions() {
    local rolling batch sys shards files
    rolling="$("$CLI" query window_summary --connect "$ADDR" \
        --params '{"scenario":"FileOpen","windows":"all"}' --field summary)"
    batch="$("$CLI" query analyze --connect "$ADDR" \
        --params "{\"corpus\":\"$SPOOL\",\"scenario\":\"FileOpen\"}")"
    sys="$("$CLI" query analyze --connect "$ADDR" --params "$SYS_PARAMS")"
    [[ "$batch" == "$rolling" ]] \
        || fail "$1: analyze differs from the rolling summary"
    [[ "$sys" == "$rolling" ]] \
        || fail "$1: *.sys analyze differs from the rolling summary"
    shards="$("$CLI" query ingest --connect "$ADDR" \
        --params "{\"corpus\":\"$SPOOL\"}" --field shards)"
    files="$(find "$SPOOL" -maxdepth 1 -name '*.tlc' | wc -l)"
    [[ "$shards" == "$files" ]] \
        || fail "$1: ingest counts $shards shards, the spool holds $files"
}

# One more shard through the poll thread, renamed into place.
"$CLI" generate --drip "$WORK/late" --machines 8 --seed 9 >/dev/null 2>&1 \
    || fail "late shard generation"
mv "$WORK/late/shard-0000.tlc" "$SPOOL/shard-0050.tlc"
wait_for_shards 5
check_spool_sessions "after a polled shard"
ROLLING="$("$CLI" query window_summary --connect "$ADDR" \
    --params '{"scenario":"FileOpen","windows":"all"}' --field summary)"

# ---- 2. ingest_push over the wire -----------------------------------
push_shard() { # push_shard NAME FILE TIMESTAMP_MS
    local name="$1" file="$2" stamp="$3" params="$WORK/push.json"
    {
        printf '{"name":"%s","fleet_revision":%s,' "$name" "$REV"
        printf '"timestamp_ms":%s,"payload":"' "$stamp"
        base64 -w0 "$file"
        printf '"}'
    } >"$params"
    "$CLI" query ingest_push --connect "$ADDR" --params-file "$params"
}

"$CLI" generate --out "$WORK/pushed.tlc" --machines 16 --seed 8 \
    >/dev/null 2>&1 || fail "push-shard generation"
NOW_MS="$(date +%s%3N)"
push_shard "shard-0100.tlc" "$WORK/pushed.tlc" "$NOW_MS" \
    | grep -q '"shard":"shard-0100.tlc"' || fail "ingest_push"
[[ -f "$SPOOL/shard-0100.tlc" ]] || fail "pushed shard not in spool"
if ls "$SPOOL"/.*.tmp >/dev/null 2>&1; then
    fail "staging temp files left in spool"
fi

# A revision-mismatched pusher is refused up front.
if "$CLI" query ingest_push --connect "$ADDR" --params \
    "{\"name\":\"shard-0101.tlc\",\"fleet_revision\":999,\"payload\":\"AAAA\"}" \
    >/dev/null 2>&1; then
    fail "mismatched fleet_revision should be rejected"
fi

# Batch and rolling views both include the pushed shard, and they
# still agree byte for byte.
check_spool_sessions "after ingest_push"
ROLLING2="$("$CLI" query window_summary --connect "$ADDR" \
    --params '{"scenario":"FileOpen","windows":"all"}' --field summary)"
[[ "$ROLLING2" != "$ROLLING" ]] \
    || fail "pushed shard changed neither view"

# ---- 3. injected regression produces an alert -----------------------
# Calm cohort in synthetic window W, regressed cohort (encryption
# everywhere, slower disks) in window W+1 — the sentinel compares the
# newest window against its trailing baseline after every ingest.
"$CLI" generate --out "$WORK/calm.tlc" --machines 24 --seed 2024 \
    --encrypted-fraction 0 --hdd-fraction 0.1 >/dev/null 2>&1 \
    || fail "calm cohort generation"
"$CLI" generate --out "$WORK/hot.tlc" --machines 24 --seed 2025 \
    --encrypted-fraction 1 --hdd-fraction 0.5 >/dev/null 2>&1 \
    || fail "regressed cohort generation"

CALM_MS=$((NOW_MS + 600000))
HOT_MS=$((NOW_MS + 660000))
push_shard "shard-0200.tlc" "$WORK/calm.tlc" "$CALM_MS" >/dev/null \
    || fail "calm push"
PUSH_OUT="$(push_shard "shard-0201.tlc" "$WORK/hot.tlc" "$HOT_MS")" \
    || fail "regressed push"
echo "$PUSH_OUT" | grep -q '"alerts":0' \
    && fail "regressed push produced no alert"

ALERTS="$("$CLI" query alerts --connect "$ADDR" \
    --params '{"after_seq":0}')"
echo "$ALERTS" | grep -Eq '"rule":"(impact_rank|cost_regression)"' \
    || fail "alerts method returned no sentinel finding"

# The JSONL sink carries the same schema for log shippers.
[[ -s "$WORK/alerts.jsonl" ]] || fail "alerts.jsonl empty"
grep -Eq '"rule":"(impact_rank|cost_regression)"' "$WORK/alerts.jsonl" \
    || fail "alerts.jsonl lacks sentinel finding"

# Graceful shutdown over the wire: the daemon drains and exits 0.
"$CLI" query shutdown --connect "$ADDR" | grep -q '"stopping":true' \
    || fail "shutdown query"
wait "$srv_PID" || fail "daemon exited nonzero after shutdown"
srv_PID=""
TL_DAEMON_PIDS=()

# ---- 4. `tracelens watch` stops promptly on Ctrl-C ------------------
mkdir -p "$WORK/watched"
"$CLI" watch "$WORK/watched" --poll-ms 60000 >"$WORK/watch.out" 2>&1 &
WATCH_PID=$!
sleep 1
kill -INT "$WATCH_PID"
for _tick in $(seq 1 20); do
    kill -0 "$WATCH_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$WATCH_PID" 2>/dev/null && fail "watch still running 2 s after SIGINT"
wait "$WATCH_PID" || fail "watch exited nonzero after SIGINT"
WATCH_PID=""

echo "smoke_fleet: OK (port $srv_PORT)"
