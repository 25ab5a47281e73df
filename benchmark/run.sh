#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#       one workload; the last line of standard output is its result
#       (this is the command of BENCHMARK.json).
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, untraced then traced, each in its own process;
#       prints every metric by name and the tracing overhead.
#
# Writes only under benchmark/out/ and the cargo target directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/qsr-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ] || [ "$arg" = "--list" ]; then
        exec "$bin" "$@"
    fi
done

failed=0
for workload in $("$bin" --list); do
    for trace in 0 1; do
        "$bin" --workload "$workload" --trace "$trace" "$@" >/dev/null || failed=1
    done
done
python3 benchmark/report.py overhead benchmark/out >&2
exit "$failed"
