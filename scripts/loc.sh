#!/usr/bin/env bash
# Non-test Rust lines per crate under crates/*/src.
#
# Each file counts up to (not including) its first `#[cfg(test)]` line;
# files named tests.rs and anything under tests/ or benches/ are skipped.
# Prints one "<lines>\t<crate>" row per crate and a total row.
#
# Usage: scripts/loc.sh [--max-obsv N]
#   --max-obsv N   exit 1 when crates/obsv counts more than N lines
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_OBSV=""
if [[ "${1:-}" == "--max-obsv" ]]; then
    MAX_OBSV="${2:?--max-obsv needs a line count}"
fi

count_crate() {
    find "$1/src" -name '*.rs' ! -name tests.rs ! -path '*/tests/*' ! -path '*/benches/*' \
        -exec awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
obsv=0
for dir in crates/*/; do
    dir="${dir%/}"
    [[ -d "$dir/src" ]] || continue
    n=$(count_crate "$dir")
    printf '%d\t%s\n' "$n" "${dir#crates/}"
    total=$((total + n))
    [[ "$dir" == crates/obsv ]] && obsv=$n
done
printf '%d\ttotal\n' "$total"

if [[ -n "$MAX_OBSV" ]] && ((obsv > MAX_OBSV)); then
    echo "loc: crates/obsv has $obsv non-test lines, over the $MAX_OBSV budget" >&2
    exit 1
fi
