#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE]
#       all five workloads, end-to-end and per-layer, as a table;
#       exits non-zero if any output check or regime gauge fails
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result as JSON
#   benchmark/run.sh manifest            prints BENCHMARK.json
#   benchmark/run.sh compare A B         see repeat.sh
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/hinfs-benchmark" "$@"
