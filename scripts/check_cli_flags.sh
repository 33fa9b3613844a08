#!/usr/bin/env bash
# Fail if the CLI's documented flags drift from the flags it reads.
#
# Two checks over tools/tracelens_cli.cpp and README.md:
#  1. every --flag in README's "Command-line interface" synopsis block
#     appears in the CLI's usage() text;
#  2. every --flag in usage() is read elsewhere in the CLI source:
#     args.flag("NAME"), args.has("NAME"), args.flagAll("NAME"), or a
#     comparison against the literal "--NAME".
# A flag removed from the parser but left in the help text or the
# README fails here, so this runs as a ctest (label: docs).
#
# Usage: check_cli_flags.sh [REPO_ROOT]   (default: script's parent)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cli="$root/tools/tracelens_cli.cpp"
readme="$root/README.md"

for file in "$cli" "$readme"; do
    if [ ! -f "$file" ]; then
        echo "check_cli_flags: expected '$file' — update" \
             "scripts/check_cli_flags.sh if the tree was restructured" >&2
        exit 2
    fi
done

# usage(): from its definition line to its `return 2;`, and the rest of
# the CLI source without it.
usage_text=$(awk '/^usage\(\)$/ { on = 1 }
                  on { print }
                  on && /return 2;/ { exit }' "$cli")
rest_text=$(awk '/^usage\(\)$/ { skip = 1 }
                 !skip { print }
                 skip && /return 2;/ { skip = 0 }' "$cli")

# README's synopsis: the first fenced block under the heading.
readme_block=$(awk '/^## Command-line interface/ { section = 1; next }
                    section && /^```/ { if (inside) exit; inside = 1; next }
                    inside { print }' "$readme")

flags_of() { grep -oE -- '--[a-z][a-z0-9-]*' | sort -u; }

usage_flags=$(printf '%s\n' "$usage_text" | flags_of)
readme_flags=$(printf '%s\n' "$readme_block" | flags_of)
if [ -z "$usage_flags" ] || [ -z "$readme_flags" ]; then
    echo "check_cli_flags: found no flags in usage() or in README's" \
         "\"Command-line interface\" block — update" \
         "scripts/check_cli_flags.sh if either moved" >&2
    exit 2
fi

fail=0
for flag in $readme_flags; do
    if ! printf '%s\n' "$usage_flags" | grep -qxF -- "$flag"; then
        echo "check_cli_flags: README.md lists $flag, usage() does not" >&2
        fail=1
    fi
done

for flag in $usage_flags; do
    name=${flag#--}
    if ! printf '%s\n' "$rest_text" |
        grep -qE -- "(flag|has|flagAll)\(\"$name\"\)|== \"--$name\""; then
        echo "check_cli_flags: usage() lists $flag, but" \
             "tools/tracelens_cli.cpp never reads it" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi

echo "check_cli_flags: OK ($(printf '%s\n' "$usage_flags" | wc -l)" \
     "usage() flags, all read; README's synopsis flags all in usage())"
exit 0
