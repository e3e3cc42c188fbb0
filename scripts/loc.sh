#!/usr/bin/env bash
# Non-test line count, the one way ROADMAP's standing rule counts lines.
#
# For every Rust file under crates/*/src (the benchmark package in
# crates/bench/src/bin/ excluded) and src/, count the lines before the
# first line that begins with `#[cfg(test)]`, leading whitespace allowed
# (the whole file if none does), so a comment that names the attribute
# does not end the count.
# Prints one "count path" line per file, then the total.
#
# Usage: scripts/loc.sh [REPO_ROOT]   (default: this script's repository)
set -euo pipefail
shopt -s globstar nullglob

cd "${1:-$(dirname "$0")/..}"
total=0
files=0
for f in crates/*/src/**/*.rs src/**/*.rs; do
    [[ $f == crates/bench/src/bin/* ]] && continue
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
    files=$((files + 1))
done
printf '%6d total (%d files)\n' "$total" "$files"
