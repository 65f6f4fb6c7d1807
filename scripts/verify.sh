#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, build, tests.
#
# The workspace builds fully offline — every external-looking dependency
# (rand, proptest, criterion, parking_lot) resolves to an in-tree shim
# under shims/ via [workspace.dependencies] path entries, and Cargo.lock
# is committed. When a network registry is unreachable we pass --offline
# explicitly so cargo never stalls trying to reach crates.io.
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if [[ "${1:-}" == "--offline" ]]; then
    OFFLINE="--offline"
elif ! cargo fetch --quiet 2>/dev/null; then
    echo "verify: registry unreachable, falling back to --offline" >&2
    OFFLINE="--offline"
fi

run() {
    echo "verify: $*"
    "$@"
}

run cargo fmt --all -- --check
run scripts/lint_locks.sh
run cargo clippy --workspace --all-targets $OFFLINE -- -D warnings
run cargo build --release --workspace $OFFLINE
run cargo test -q --workspace $OFFLINE
# The repo benchmark (BENCHMARK.json, benchmark/) is a package of its own
# reading the crates through a pinned API: build it and run its tests so
# renaming a pinned item fails here, not only in the benchmark pipeline.
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
run cargo test --offline --manifest-path benchmark/Cargo.toml
# faultfs smoke sweep: crash-point enumeration + durability oracle +
# fault injection across hinfs/pmfs/ext4 (fixed seed, capped points;
# exits non-zero on any oracle violation or panic).
run cargo run --release $OFFLINE --example crash_recovery

# Coverage-guided fuzz soak: a seed- and iteration-capped campaign that
# must (1) be byte-reproducible, (2) reach strictly more coverage than
# replaying the scripted seed corpus, with zero violations, and (3) catch
# a deliberately planted reference-model bug and shrink it to the exact
# committed fixture (the negative test proving the gate gates).
run scripts/fuzz_soak.sh $OFFLINE

# State introspection gate: run the quick-scale fileserver workload with
# the online invariant auditor on; exits non-zero on any audit violation
# or any snapshot-vs-registry disagreement. --lag also arms Level::Full so
# the agreement pass covers the obsv_lineage_* gauges and the
# durability-lag report renders. Then the `dump` tour must render every
# section from one fully-instrumented run.
run cargo run --release $OFFLINE --example fs_inspect -- --audit --lag
run cargo run --release $OFFLINE --example fs_inspect -- dump --contention >/dev/null

# Machine-readable perf pipeline: regenerate the BENCH document at the
# quick deterministic scale and gate it against the committed baseline.
# The virtual clock makes the run reproducible, so any drift here is a
# real behavior change, not noise.
bench_tmp=$(mktemp -t BENCH_check.XXXXXX.json)
trap 'rm -f "$bench_tmp" "$bench_tmp.bad" "$bench_tmp.blame" "$bench_tmp.waf"' EXIT
run cargo run --release $OFFLINE -p hinfs-bench --bin experiments -- \
    --quick --fig 101 --fig 112 --bench-json "$bench_tmp"
run scripts/bench_check.sh BENCH_pr10.json "$bench_tmp"
# The gate must also FAIL when a regression is injected — otherwise it
# gates nothing.
sed 's/\("headline::fileserver::hinfs::ops_per_s": \)\([0-9]*\)/\10/' \
    "$bench_tmp" >"$bench_tmp.bad"
if scripts/bench_check.sh BENCH_pr10.json "$bench_tmp.bad" >/dev/null 2>&1; then
    echo "verify: bench_check failed to flag an injected regression" >&2
    exit 1
fi
echo "verify: bench_check catches injected regressions"

# Regression ATTRIBUTION: bench_diff must run clean against the
# committed baseline.
run scripts/bench_diff.sh $OFFLINE BENCH_pr10.json "$bench_tmp"
# And its blame table must NAME a planted regression: multiply the
# journal span-phase time by 10 and require the span blame to rank
# `journal` first for that cell.
awk '{
    if ($0 ~ /"span::fileserver::hinfs::phase=journal::ns": /) {
        match($0, /[0-9]+/); v = substr($0, RSTART, RLENGTH)
        sub(/[0-9]+/, sprintf("%d", v * 10))
    }
    print
}' "$bench_tmp" >"$bench_tmp.blame"
if ! scripts/bench_diff.sh $OFFLINE "$bench_tmp" "$bench_tmp.blame" |
    grep -q '^blame::fileserver::hinfs::span 1 journal +'; then
    echo "verify: bench_diff failed to blame the planted journal-phase regression" >&2
    exit 1
fi
# Same drill for the v4 lineage families: a 10x NVMM-persisted byte count
# must rank `nvmm_persisted` first in the waf blame, and a large max-lag
# bump must rank `max` first in the lag blame, each for exactly that cell.
awk '{
    if ($0 ~ /"waf::fileserver::hinfs::nvmm_persisted::bytes": /) {
        match($0, /[0-9]+/); v = substr($0, RSTART, RLENGTH)
        sub(/[0-9]+/, sprintf("%d", v * 10))
    }
    if ($0 ~ /"lag::fileserver::hinfs::max_ns": /) {
        match($0, /[0-9]+/); v = substr($0, RSTART, RLENGTH)
        sub(/[0-9]+/, sprintf("%d", v + 5000000))
    }
    print
}' "$bench_tmp" >"$bench_tmp.waf"
waf_diff=$(scripts/bench_diff.sh $OFFLINE "$bench_tmp" "$bench_tmp.waf")
if ! grep -q '^blame::fileserver::hinfs::waf 1 nvmm_persisted +' <<<"$waf_diff"; then
    echo "verify: bench_diff failed to blame the planted write-amplification regression" >&2
    exit 1
fi
if ! grep -q '^blame::fileserver::hinfs::lag 1 max +' <<<"$waf_diff"; then
    echo "verify: bench_diff failed to blame the planted durability-lag regression" >&2
    exit 1
fi
echo "verify: bench_diff blames planted regressions correctly"
echo "verify: OK"
