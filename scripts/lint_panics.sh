#!/usr/bin/env bash
# Panic lint for the crates whose non-test code is already panic-free.
#
# Fails, naming file:line, on any `.unwrap()` or `.expect(` in the
# non-test code of the listed crates, so a reachable panic cannot creep
# back in. "Non-test" follows scripts/loc.sh: a file counts up to (not
# including) its first `#[cfg(test)]` line, and files named tests.rs and
# anything under tests/ or benches/ are skipped. Comments count too, doc
# examples included. Add a crate to CRATES once its count reaches zero.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(nvmm hinfs blockdev faultfs obsv fskit extfs pmfs workloads bench)

fail=0
for crate in "${CRATES[@]}"; do
    dir="crates/$crate/src"
    [[ -d "$dir" ]] || continue
    while IFS= read -r hit; do
        [[ -z "$hit" ]] && continue
        echo "lint_panics: $hit"
        fail=1
    done < <(find "$dir" -name '*.rs' ! -name tests.rs ! -path '*/tests/*' ! -path '*/benches/*' \
        -exec awk '/#\[cfg\(test\)\]/ { nextfile }
                   /\.unwrap\(\)|\.expect\(/ { sub(/^[[:space:]]+/, ""); print FILENAME ":" FNR ": " $0 }' {} + |
        sort -t: -k1,1 -k2,2n)
done

if [[ "$fail" -ne 0 ]]; then
    echo "lint_panics: non-test code of ${CRATES[*]} must not unwrap or expect" >&2
    echo "lint_panics: (return an error, or restructure so the case cannot arise)" >&2
    exit 1
fi
echo "lint_panics: OK (no unwrap/expect in the non-test code of ${CRATES[*]})"
