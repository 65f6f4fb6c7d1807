#!/usr/bin/env bash
# Bench-regression attribution over two BENCH_*.json documents.
#
#   scripts/bench_diff.sh [--offline] BASELINE.json CANDIDATE.json
#
# Where bench_check.sh answers "did throughput regress?", this answers
# "what changed?": it decomposes the delta between two documents into
# ranked span-phase (ns/op), lock-site (wait-ns/op), fence-count
# (fences/op) and p99-tail-anatomy (ns/exemplar) blame lines, largest
# mover first (up or down: a gain is explained by the same table).
# Output is greppable:
#
#   blame::<workload>::<system>::span 1 journal +123.4 ns/op (+85.00%)
#
# A schema-v2 baseline (no span::/tail:: keys) still diffs: headline
# deltas print and each missing family becomes a note. Exit 0 whenever
# both files parse — this is an explainer, not a gate.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if [[ "${1:-}" == "--offline" ]]; then
    OFFLINE="--offline"
    shift
fi

if [[ $# -ne 2 ]]; then
    echo "usage: $0 [--offline] BASELINE.json CANDIDATE.json" >&2
    exit 2
fi

exec cargo run --release $OFFLINE -q -p hinfs-bench --bin bench_diff -- "$@"
