#!/usr/bin/env bash
# Run the built `tracelens` against its flag tables:
#  1. an unknown flag, a bad or missing value, a repeated flag and two
#     flags that conflict exit 2, naming the flag (both, for a conflict),
#     before any work (`serve` writes no --port-file, `generate` writes
#     nothing, `query` never dials); each run is under `timeout`;
#  2. a switch never takes the next argument;
#  3. each command's flags on README's "Command-line interface" lines are
#     the flags `tracelens CMD --help` lists; README names the global
#     flags once, below the block.
#
# Usage: smoke_cli.sh TRACELENS [REPO_ROOT]
set -euo pipefail

CLI="$1"
ROOT="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
fail() { echo "smoke_cli: $*" >&2; exit 1; }

C="$WORK/c.tlc"
"$CLI" generate --out "$C" --machines 20 --seed 3 >/dev/null 2>&1 ||
    fail "generate"

# usage_error FLAG ARGS...: `tracelens ARGS` exits 2 and names FLAG.
usage_error() {
    local flag="$1" rc=0
    shift
    timeout 20 "$CLI" "$@" >/dev/null 2>"$WORK/err" || rc=$?
    [[ "$rc" -eq 2 ]] || fail "'$*' exited $rc, expected 2"
    grep -qF -- "$flag" "$WORK/err" ||
        fail "'$*' did not name $flag: $(cat "$WORK/err")"
}
usage_error --tfats analyze "$C" --scenario BrowserTabCreate --tfats 100
usage_error --thredas report "$C" --thredas 2 --topp 1
usage_error --threads ingest "$C" --threads 4
usage_error --bogus version --bogus
usage_error --wokers serve --listen 127.0.0.1:0 --port-file "$WORK/port" \
    --wokers 3
[[ ! -e "$WORK/port" ]] || fail "serve wrote --port-file past a bad flag"
usage_error --dedline-ms query health --connect 127.0.0.1:1 --dedline-ms 5
usage_error --workers serve --listen 127.0.0.1:0 --workers 5000
usage_error --tfast analyze "$C" --scenario BrowserTabCreate --tfast 1 \
    --tfast 2
usage_error --top report "$C" --top
usage_error --scenario analyze "$C" --scenario

# Conflicting flags name both flags and do no work: generate writes
# nothing, and query dials nothing (a local listener counts arrivals).
usage_error --drip generate --out "$WORK/f.tlc" --drip "$WORK/dd" \
    --machines 2 --seed 1
grep -qF -- --out "$WORK/err" || fail "generate did not name --out"
[[ ! -e "$WORK/f.tlc" && ! -e "$WORK/dd" ]] ||
    fail "generate wrote past --out with --drip"
usage_error --interval-ms generate --out "$WORK/g.tlc" --interval-ms 5
grep -qF -- --out "$WORK/err" || fail "generate did not name --out"
[[ ! -e "$WORK/g.tlc" ]] || fail "generate wrote past --interval-ms"
echo '{"b":2}' >"$WORK/p.json"
mkfifo "$WORK/hold"
python3 -c '
import os, socket, sys
s = socket.socket()
s.bind(("127.0.0.1", 0))
s.listen(8)
with open(sys.argv[1] + ".tmp", "w") as f:
    f.write(str(s.getsockname()[1]))
os.replace(sys.argv[1] + ".tmp", sys.argv[1])
sys.stdin.read()
s.setblocking(False)
dials = 0
while True:
    try:
        s.accept()
    except BlockingIOError:
        break
    dials += 1
print(dials)
' "$WORK/lport" <"$WORK/hold" >"$WORK/dials" &
listener=$!
exec 3>"$WORK/hold"
for _ in $(seq 100); do [[ -s "$WORK/lport" ]] && break; sleep 0.1; done
[[ -s "$WORK/lport" ]] || fail "the local listener did not start"
usage_error --params-file query health \
    --connect "127.0.0.1:$(cat "$WORK/lport")" --params '{"a":1}' \
    --params-file "$WORK/p.json"
grep -qF -- "--params " "$WORK/err" || fail "query did not name --params"
exec 3>&-
wait "$listener"
[[ "$(cat "$WORK/dials")" == 0 ]] ||
    fail "query dialled past --params with --params-file"

"$CLI" analyze --no-knowledge-filter "$C" --scenario BrowserTabCreate \
    >"$WORK/first" || fail "analyze with a leading switch"
"$CLI" analyze "$C" --scenario BrowserTabCreate --no-knowledge-filter \
    >"$WORK/last" || fail "analyze with a trailing switch"
[[ -s "$WORK/first" ]] && cmp -s "$WORK/first" "$WORK/last" ||
    fail "analyze output depends on where --no-knowledge-filter stands"

section=$(awk '/^## Command-line interface/ { on = 1; next }
               on && /^## / { exit }
               on { print }' "$ROOT/README.md")
block=$(awk '/^```/ { if (inside) exit; inside = 1; next }
             inside { print }' <<<"$section")
[[ -n "$block" ]] || fail "README.md has no command-line synopsis block"
# help_flags HEADING: the flags listed under HEADING in a help text.
help_flags() {
    awk -v heading="$1" '$0 == heading { on = 1; next }
                         /^$/ { on = 0 }
                         on && /^  --/ { print $1 }' | sort -u
}

"$CLI" --help >"$WORK/overview"
for flag in $(help_flags "global flags (every command):" \
        <"$WORK/overview"); do
    grep -qF -- "\`$flag" <<<"$section" ||
        fail "README's command-line section does not name $flag"
done
commands=$(awk '/^  tracelens / { print $2 }' "$WORK/overview")
for command in $commands; do
    grep -qE "^tracelens $command( |$)" <<<"$block" ||
        fail "README's synopsis has no line for $command"
    documented=$(awk -v cmd="$command" \
        '/^tracelens / { on = ($2 == cmd) } on' <<<"$block" |
        { grep -oE -- '--[a-z][a-z0-9-]*' || true; } | sort -u)
    taken=$("$CLI" "$command" --help | help_flags "flags:")
    [[ "$documented" == "$taken" ]] ||
        fail "$command: README lists [$(echo $documented)]," \
             "--help lists [$(echo $taken)]"
done
echo "smoke_cli: OK ($(wc -w <<<"$commands") commands)"
