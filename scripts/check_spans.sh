#!/usr/bin/env bash
# Fail if docs/TELEMETRY.md's span catalogue drifts from the spans the
# code emits.
#
# The emitted names are read from src/ and tools/: every string
# literal passed as the name of a `Span` or `TL_SPAN`. A span
# constructed with a non-literal name fails the check, since its name
# cannot be read. Two checks:
#  1. every emitted span has a row in the "Span catalogue" table;
#  2. every row of that table names an emitted span.
# A span added, renamed or removed without its row fails here, so this
# runs as a ctest (label: docs).
#
# Usage: check_spans.sh [REPO_ROOT]   (default: script's parent)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
doc="$root/docs/TELEMETRY.md"

for path in "$doc" "$root/src" "$root/tools"; do
    if [ ! -e "$path" ]; then
        echo "check_spans: expected '$path' — update" \
             "scripts/check_spans.sh if the tree was restructured" >&2
        exit 2
    fi
done

# Span constructions: `Span NAME(` or `TL_SPAN(`, outside comments and
# macro definitions (TL_SPAN's own body).
sites=$(grep -rnE --include='*.cpp' --include='*.h' \
            '(\bSpan [A-Za-z_][A-Za-z0-9_]*\(|\bTL_SPAN\()' \
            "$root/src" "$root/tools" |
        grep -vE '^[^:]*:[0-9]+:\s*(\*|//|#define)' |
        grep -vE '\\$')

literal='(Span [A-Za-z_][A-Za-z0-9_]*|TL_SPAN)\(\s*"[^"]+"'
fail=0
unreadable=$(printf '%s\n' "$sites" | grep -vE "$literal")
if [ -n "$unreadable" ]; then
    printf 'check_spans: span name is not a string literal:\n%s\n' \
        "$unreadable" >&2
    fail=1
fi

emitted=$(printf '%s\n' "$sites" | grep -oE "$literal" |
          sed -E 's/.*"([^"]+)"$/\1/' | sed '/^$/d' | sort -u)

# The catalogue: first-column names of the table under its heading.
rows=$(awk '/^## Span catalogue/ { on = 1; next }
            on && /^## / { exit }
            on && /^\| `/ { split($0, cells, "`"); print cells[2] }' \
           "$doc" | sort)

if [ -z "$emitted" ] || [ -z "$rows" ]; then
    echo "check_spans: found no spans in the code or no rows under" \
         "TELEMETRY.md's \"## Span catalogue\" — update" \
         "scripts/check_spans.sh if either moved" >&2
    exit 2
fi

duplicates=$(printf '%s\n' "$rows" | uniq -d)
if [ -n "$duplicates" ]; then
    echo "check_spans: TELEMETRY.md lists more than once:" $duplicates >&2
    fail=1
fi

for name in $emitted; do
    if ! printf '%s\n' "$rows" | grep -qxF -- "$name"; then
        echo "check_spans: the code emits $name, TELEMETRY.md's span" \
             "catalogue has no row for it" >&2
        fail=1
    fi
done

for name in $(printf '%s\n' "$rows" | uniq); do
    if ! printf '%s\n' "$emitted" | grep -qxF -- "$name"; then
        echo "check_spans: TELEMETRY.md's span catalogue lists $name," \
             "which the code does not emit" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi

echo "check_spans: OK ($(printf '%s\n' "$emitted" | wc -l) spans" \
     "emitted, each with one row in TELEMETRY.md's span catalogue)"
exit 0
