#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, build, tests, the crash and
# fuzz drills, the benchmark's modelled rows and the quick figures.
#
# Prints the wall time of every stage and the total when it ends (pass or
# fail), and fails when the two test stages together take longer than
# TEST_BUDGET_S: the suite is only run if it stays cheap to run.
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

# Wall-clock budget of `workspace tests` + `benchmark tests`, seconds.
TEST_BUDGET_S=240

# stage NAME closes the running stage (recording its wall time) and opens
# the next; the table is printed by the EXIT trap, so a failing stage still
# shows where the time went.
declare -A took
stages=()
stage_name=""
stage_t0=$SECONDS
stage() {
    if [[ -n "$stage_name" ]]; then
        took[$stage_name]=$((SECONDS - stage_t0))
        stages+=("$stage_name")
    fi
    stage_name="$1"
    stage_t0=$SECONDS
}
bench_tmp=$(mktemp -t BENCH.XXXXXX.tsv)
quick_tmp=$(mktemp -t quick.XXXXXX.txt)
finish() {
    status=$?
    rm -f "$bench_tmp" "$quick_tmp"
    stage ""
    echo "verify: wall time per stage"
    for s in "${stages[@]}"; do
        printf 'verify:   %-18s %4d s\n' "$s" "${took[$s]}"
    done
    printf 'verify:   %-18s %4d s\n' total "$SECONDS"
    exit "$status"
}
trap finish EXIT

stage fmt
run cargo fmt --all -- --check
run scripts/lint_locks.sh
run scripts/lint_panics.sh
# The observer stays smaller than the system it observes (ROADMAP item 2).
run scripts/loc.sh --max-obsv 3392
stage clippy
run cargo clippy --workspace --all-targets $OFFLINE -- -D warnings
# Everything is compiled here, test binaries included, so that the test
# stages below time the tests and not the compiler. The repo benchmark
# (BENCHMARK.json, benchmark/) is a package of its own reading the crates
# through a pinned API: building it and running its tests makes renaming a
# pinned item fail here, not only in the benchmark pipeline.
stage build
run cargo build --release --workspace $OFFLINE
run cargo test -q --workspace --no-run $OFFLINE
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
run cargo test -q --offline --no-run --manifest-path benchmark/Cargo.toml
stage "workspace tests"
run cargo test -q --workspace $OFFLINE
stage "benchmark tests"
run cargo test --offline --manifest-path benchmark/Cargo.toml
stage "crash/fuzz drills"
# faultfs smoke sweep: crash-point enumeration + durability oracle +
# fault injection across the journaled kinds, hinfs/pmfs/ext4-nvmmbd
# (faultfs::CRASH_KINDS; fixed seed, capped points;
# exits non-zero on any oracle violation or panic). Its second pass is the
# recycling drill — a crash at every boundary around a block-tree node
# that is freed, wiped, parked and reused — which also exits non-zero when
# `pmfs_tree_nodes_recycled` stayed 0 on hinfs or pmfs: a drill that
# never exercises the path is no drill. Its third pass is the budget
# drill: HiNFS on an 8-block buffer with the writeback stalled, swept
# under that fault, in 3-way lockstep with the reference model and with a
# crash at every boundary — exits non-zero unless `hinfs_foreground_stalls`
# moved and the stalled writer took a block from a foreign shard.
run cargo run --release $OFFLINE --example crash_recovery

# Coverage-guided fuzz soak: a seed- and iteration-capped campaign that
# must (1) be byte-reproducible, (2) reach strictly more coverage than
# replaying the scripted seed corpus, with zero violations, and (3) catch
# a deliberately planted reference-model bug in at least half of a fixed
# set of campaigns and shrink it to the exact committed fixture (the
# negative test proving the gate gates).
run scripts/fuzz_soak.sh $OFFLINE

stage inspect
# State introspection gate: run the quick-scale fileserver workload with
# the online invariant auditor on; exits non-zero on any audit violation
# or any snapshot-vs-registry disagreement. --lag also arms Level::Full so
# the agreement pass covers the obsv_lineage_* gauges and the
# durability-lag report renders. Then the `dump` tour must render every
# section from one fully-instrumented run.
run cargo run --release $OFFLINE --example fs_inspect -- --audit --lag
run cargo run --release $OFFLINE --example fs_inspect -- dump --contention >/dev/null

# The repo benchmark, as the pipeline runs it: the durable-content hashes,
# the pre- and post-remount audits, the regime gauges, the fault sweep and
# the traced == untraced check all fail the run. Its modelled rows repeat
# exactly at the default seed, so they must equal the committed BENCH.tsv
# row for row: any difference is a change of behaviour.
stage benchmark
run benchmark/run.sh --seconds 0 --out "$bench_tmp"
if ! awk -F'\t' '$3 == "modelled"' "$bench_tmp" | cmp -s - BENCH.tsv; then
    cargo run -q --release $OFFLINE -p hinfs-bench --bin bench_diff -- BENCH.tsv "$bench_tmp" || true
    echo "verify: the benchmark's modelled rows differ from BENCH.tsv; if the change is meant, regenerate it:" >&2
    echo "  benchmark/run.sh --seconds 0 --out /tmp/b.tsv && awk -F'\t' '\$3==\"modelled\"' /tmp/b.tsv > BENCH.tsv" >&2
    exit 1
fi
echo "verify: the benchmark's modelled rows equal BENCH.tsv"

# The quick figures run on the virtual clock, so they repeat exactly: they
# must equal the committed experiments_quick.txt byte for byte.
stage figures
echo "verify: experiments --quick"
cargo run -q --release $OFFLINE -p hinfs-bench --bin experiments -- --quick >"$quick_tmp"
if ! cmp -s "$quick_tmp" experiments_quick.txt; then
    diff -u experiments_quick.txt "$quick_tmp" || true
    echo "verify: the quick figures differ from experiments_quick.txt; if the change is meant, regenerate it:" >&2
    echo "  cargo run -q --release -p hinfs-bench --bin experiments -- --quick > experiments_quick.txt" >&2
    exit 1
fi
echo "verify: the quick figures equal experiments_quick.txt"
stage ""
tests_s=$((took["workspace tests"] + took["benchmark tests"]))
if ((tests_s > TEST_BUDGET_S)); then
    echo "verify: the test stages took ${tests_s} s, over the ${TEST_BUDGET_S} s budget" >&2
    exit 1
fi
echo "verify: OK (tests ${tests_s} s of a ${TEST_BUDGET_S} s budget)"
