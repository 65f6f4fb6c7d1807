#!/usr/bin/env bash
# Runs the full set twice on the same build and compares the two sets:
# every modelled-clock metric and every count must be identical, every
# host-clock end-to-end metric within its bound. Prints the observed spread
# next to each bound. Arguments (--seed, --seconds) go to both runs.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
benchmark/run.sh "$@" --out benchmark/out/set-a.tsv
benchmark/run.sh "$@" --out benchmark/out/set-b.tsv
benchmark/run.sh compare benchmark/out/set-a.tsv benchmark/out/set-b.tsv
