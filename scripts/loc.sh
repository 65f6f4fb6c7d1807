#!/usr/bin/env bash
# Non-test Rust lines per crate under crates/*/src.
#
# Each file counts up to (not including) its first `#[cfg(test)]` line;
# files named tests.rs and anything under tests/ or benches/ are skipped.
# Prints one "<lines>\t<crate>" row per crate and a total row.
#
# Usage: scripts/loc.sh [--max-obsv N] [--against REV]
#   --max-obsv N   exit 1 when crates/obsv counts more than N lines
#   --against REV  print "<at REV>\t<tree>\t<delta>\t<crate>" rows instead,
#                  REV's files taken from `git archive` (no checkout, no
#                  network); --max-obsv still judges the tree's count
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_OBSV=""
AGAINST=""
while (($#)); do
    case "$1" in
    --max-obsv) MAX_OBSV="${2:?--max-obsv needs a line count}" ;;
    --against) AGAINST="${2:?--against needs a git revision}" ;;
    *)
        echo "loc: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

count_crate() {
    find "$1/src" -name '*.rs' ! -name tests.rs ! -path '*/tests/*' ! -path '*/benches/*' \
        -exec awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }'
}

# "<lines> <crate>" for every crate under $1/crates.
count_all() {
    for dir in "$1"/crates/*/; do
        dir="${dir%/}"
        [[ -d "$dir/src" ]] || continue
        echo "$(count_crate "$dir") ${dir##*/}"
    done
}

obsv=$(count_crate crates/obsv)

if [[ -n "$AGAINST" ]]; then
    old=$(mktemp -d -t loc.XXXXXX)
    trap 'rm -rf "$old"' EXIT
    git archive "$AGAINST" crates | tar -x -C "$old"
    # Crates present on either side; a missing one counts 0.
    join -a1 -a2 -e 0 -o 0,1.1,2.1 -1 2 -2 2 \
        <(count_all "$old" | sort -k2) <(count_all . | sort -k2) |
        awk '{ printf "%d\t%d\t%+d\t%s\n", $2, $3, $3 - $2, $1; a += $2; b += $3 }
             END { printf "%d\t%d\t%+d\ttotal\n", a, b, b - a }'
else
    count_all . | awk '{ printf "%d\t%s\n", $1, $2; s += $1 } END { printf "%d\ttotal\n", s }'
fi

if [[ -n "$MAX_OBSV" ]] && ((obsv > MAX_OBSV)); then
    echo "loc: crates/obsv has $obsv non-test lines, over the $MAX_OBSV budget" >&2
    exit 1
fi
