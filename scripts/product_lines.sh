#!/bin/sh
# Non-test product lines, per crate and in total.
#
# The rule: every `.rs` file under the root `src/` and under
# `crates/*/src/` (recursively), except `crates/bench`, each counted up
# to (not including) its first line that is exactly `#[cfg(test)]`.
# Blank lines and comments count; in-file test modules, `tests/`,
# `examples/` and the benchmark crate do not.
#
#   sh scripts/product_lines.sh          # from the repository root
set -e
cd "$(dirname "$0")/.."

count() {
    # $1: label, $2...: directories to scan
    label="$1"
    shift
    n=$(find "$@" -name '*.rs' -type f | sort | while read -r f; do
        awk '$0 == "#[cfg(test)]" { exit } { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }')
    printf '%-16s %6d\n' "$label" "$n"
    total=$((total + n))
}

total=0
count root src
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ "$crate" = bench ] && continue
    [ -d "$dir/src" ] || continue
    count "$crate" "$dir/src"
done
printf '%-16s %6d\n' total "$total"
