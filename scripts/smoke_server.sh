#!/usr/bin/env bash
# End-to-end smoke test of the analysis service: start the real
# daemon, run query round trips through the real client, then shut it
# down gracefully over the wire (and verify it exits 0).
#
# Usage: smoke_server.sh /path/to/tracelens
set -euo pipefail

CLI="${1:?usage: smoke_server.sh /path/to/tracelens}"

# Ephemeral-port daemon management (shared with smoke_cluster.sh).
. "$(dirname "${BASH_SOURCE[0]}")/lib_serve.sh"

WORK="$(mktemp -d "${TMPDIR:-/tmp}/tracelens_smoke.XXXXXX")"
cleanup() {
    tl_stop_all_daemons
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "smoke_server: FAIL: $*" >&2; exit 1; }

"$CLI" generate --out "$WORK/corpus.tlc" --machines 10 --seed 42 \
    >/dev/null 2>&1 || fail "corpus generation"

# The batch `ingest` command reads the same corpus: it exits 0 (no
# shard skipped) and prints a tally row per scenario.
INGEST="$("$CLI" ingest "$WORK/corpus.tlc" 2>&1)" || fail "ingest command"
grep -q '^| BrowserTabCreate ' <<<"$INGEST" || fail "ingest tally row"

tl_start_daemon srv --workers 2 || fail "daemon startup"
ADDR="$srv_ADDR"

"$CLI" query health --connect "$ADDR" | grep -q '"status":"ok"' \
    || fail "health check"

# Health advertises the one protocol revision the daemon speaks.
"$CLI" query health --connect "$ADDR" \
    | grep -q '"protocols":\[2\]' || fail "health protocols"

"$CLI" query ingest --connect "$ADDR" \
    --params "{\"corpus\":\"$WORK/corpus.tlc\"}" \
    | grep -q '"loaded_shards":1' || fail "ingest query"

"$CLI" query analyze --connect "$ADDR" \
    --params "{\"corpus\":\"$WORK/corpus.tlc\",\"scenario\":\"BrowserTabCreate\"}" \
    | grep -q '"classes"' || fail "analyze query (cold)"

# Warm repeat must answer identically.
COLD="$("$CLI" query analyze --connect "$ADDR" \
    --params "{\"corpus\":\"$WORK/corpus.tlc\",\"scenario\":\"BrowserTabCreate\"}")"
WARM="$("$CLI" query analyze --connect "$ADDR" \
    --params "{\"corpus\":\"$WORK/corpus.tlc\",\"scenario\":\"BrowserTabCreate\"}")"
[[ "$COLD" == "$WARM" ]] || fail "warm response differs from cold"

"$CLI" query stats --connect "$ADDR" | grep -q '"sessions"' \
    || fail "stats query"

# A parse failure must exit nonzero.
if "$CLI" query analyze --connect "$ADDR" --params "not json" \
    >/dev/null 2>&1; then
    fail "bad --params should exit nonzero"
fi

# A *server* error (well-formed request, error response) must exit
# nonzero too, so scripts can branch on the exit code alone.
if "$CLI" query analyze --connect "$ADDR" \
    --params "{\"corpus\":\"$WORK/corpus.tlc\",\"scenario\":\"NoSuchScenario\",\"tfast_ms\":100,\"tslow_ms\":500}" \
    >/dev/null 2>&1; then
    fail "server error response should exit nonzero"
fi

# Graceful shutdown over the wire: the daemon drains and exits 0.
"$CLI" query shutdown --connect "$ADDR" | grep -q '"stopping":true' \
    || fail "shutdown query"
wait "$srv_PID" || fail "daemon exited nonzero after shutdown"
srv_PID=""
TL_DAEMON_PIDS=()

grep -q "drained" "$srv_LOG" || fail "daemon never logged drain"
echo "smoke_server: OK (port $srv_PORT)"
