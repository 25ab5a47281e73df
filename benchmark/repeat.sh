#!/usr/bin/env bash
# Run two full sets on the same tree and fail if any end-to-end metric of
# the second set is worse than the first by more than its bound in
# BENCHMARK.json. `--smoke` runs both sets at 1/10 size as a quick check of
# the machinery (its numbers are too short to hold the bounds, so it only
# reports them).
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
mode=compare
for arg in "$@"; do
    [ "$arg" = "--smoke" ] && mode=show
done
for set in a b; do
    benchmark/run.sh "$@"
    rm -rf "$out/set-$set"
    mkdir -p "$out/set-$set"
    mv "$out"/result-*.json "$out/set-$set/"
done
python3 benchmark/report.py "$mode" "$out/set-a" "$out/set-b"
