#!/usr/bin/env sh
# Full local CI: lint gate plus the tier-1 verify from ROADMAP.md.
# Runs entirely offline — all dependencies are vendored in shims/.
set -eu
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q

# Release-mode suite: the buffer pool and the parallel dump pipeline are
# concurrency-sensitive; optimized codegen shakes out timing-dependent
# bugs the dev profile can mask.
cargo test --workspace --release -q

# Bench smoke: cached-vs-uncached scan-join ledger counters and serial
# vs pipelined suspend wall-clock. Asserts the >=5x cached-read reduction
# and writes BENCH_pr2.json.
cargo run --release -p qsr-bench --bin bench_pr2

# Degradation smoke: crash/torn/NoSpace at every write ordinal of a
# pressured suspend, of generation GC, and of generation retirement ran
# in the release workspace pass above (tests/degradation_matrix.rs);
# here the deadline + quota ladder sweep bench. Asserts no rung overruns
# its budget beyond the commit bookkeeping and writes BENCH_pr4.json.
cargo run --release -p qsr-bench --bin bench_pr4

# Differential suspend-point oracle, bounded CI shape: stride-1 sweep
# over the corpus plus 32 seeded fault schedules (the workspace test run
# above already covers the default seed; this pins an explicit one so
# printed repro tokens stay valid across environments). Set
# QSR_ORACLE_FULL=1 for the widened nightly-style run.
QSR_ORACLE_SEED=219803630 QSR_ORACLE_FAULTS=32 \
    cargo test --release -q --test oracle_sweep

# Observability smoke: the oracle smoke runs with a JSONL flight-recorder
# sink attached (QSR_TRACE) and every emitted line is validated against
# the checked-in event schema. (The zero-overhead-off pin — tracer
# installed vs absent leaves the CostLedger bit-identical — ran in the
# release workspace pass above, tests/trace_invariants.rs.)
QSR_TRACE_DIR="$(mktemp -d)"
QSR_TRACE="$QSR_TRACE_DIR/trace.jsonl" \
    cargo run --release -p qsr-bench --bin oracle_smoke
cargo run --release -p qsr-bench --bin trace_check -- \
    "$QSR_TRACE_DIR/trace.jsonl" scripts/trace.schema.json
cargo run --release -p qsr-bench --bin trace_summary -- \
    "$QSR_TRACE_DIR/trace.jsonl"
rm -rf "$QSR_TRACE_DIR"

# Scheduler stage: the multi-session preemptive server — one scheduling
# loop, run inline (--workers 0) or on threads. The server matrix
# (tests/server_matrix.rs, in the release workspace pass above) covers
# both: three sessions over one live slot (every activation preempts the
# MIP-cheapest victim), crash/torn/NoSpace at every write ordinal of a
# preemption with full registry recovery after each halting fault, the
# seeded threaded stress lane and the crash mid-concurrent-suspend,
# SLA-budget rung forcing, admission reject/queue/drain in both modes,
# the strict max_live ceiling, workers=1 == workers=0 equivalence, and
# spill reclaim; tests/delta_retention.rs there sweeps the orphan blobs
# of torn remote puts. Here the server binary end-to-end in both modes,
# the session-count sweep
# (BENCH_pr6.json: throughput + p95 resume latency in ledger units) and
# the worker sweep (BENCH_pr10.json: workers=0 ledger bit-identity
# across runs, wall-clock throughput, per-tenant p50/p95 slice latency,
# SLA-miss rate for workers in {0,1,2,4}).
for workers in 0 2; do
    cargo run --release -q -p qsr-server --bin qsr-server -- \
        --sessions 3 --quantum 1500 --max-live 1 --workers "$workers"
done
cargo run --release -p qsr-bench --bin bench_pr6
cargo run --release -p qsr-bench --bin bench_pr10

# Vectorization stage: the batch execution path. A deliberately awkward
# batch size (48, straddling page boundaries) re-runs the end-to-end and
# stride-7 oracle sweeps and the executor crate's operator-level
# suspend/resume tests in batch mode, so every suspend point is hit with
# partially filled batches and every operator's shared step runs in the
# batch lane too, then the vectorized-scan bench asserts pool-0
# ledger bit-identity between tuple and batch modes and writes
# BENCH_pr7.json. (The nightly QSR_ORACLE_FULL=1 oracle run widens this
# lane too: the oracle's batch axis replays every corpus scenario at
# several batch sizes against the tuple-mode reference.)
QSR_BATCH_SIZE=48 cargo test --release -q --test end_to_end
QSR_ORACLE_STRIDE=7 QSR_BATCH_SIZE=48 \
    cargo test --release -q --test oracle_sweep
QSR_BATCH_SIZE=48 cargo test --release -q -p qsr-exec
cargo run --release -p qsr-bench --bin bench_pr7

# Larger-than-memory stage: the recursive grace hash join and the
# multi-pass external sort. The partition-depth and merge-pass sweeps
# assert the budget/fan-in knobs actually grade recursion depth and
# intermediate pass counts, and a NoSpace fault parked mid-recursive
# spill must land on a degraded ladder rung that still resumes.
cargo run --release -p qsr-bench --bin bench_pr8

# Backend stage: pluggable suspend backends, delta checkpoints, and
# retention. The release workspace pass above already ran the
# delta-chain commit / compaction-fold / retention-GC / remote
# retry-failover fault matrices (degradation_matrix), the backend-aware
# oracle lane replaying suspend chains across local/memory/remote x
# delta x keep (oracle_sweep backend_delta_retention_chains) and the
# env-knob audit (qsr-storage env_knobs); here the bench asserts five
# delta suspends charge measurably less dump I/O than full dumps (and
# that the remote stack retries transients but fails over dead
# endpoints) and writes BENCH_pr9.json.
cargo run --release -p qsr-bench --bin bench_pr9

# Repo benchmark (read-only use): the standalone benchmark crate
# path-depends on the engine crates' public API and nothing above builds
# it, so run its unit tests and a 1/10-size pass of the whole harness
# (two sets, every workload, traced and untraced).
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/repeat.sh --smoke

# Nightly lane (opt-in: QSR_NIGHTLY=1). The full-corpus oracle matrix —
# every scenario x config x batch combination at stride cfg.stride,
# including the grace/multipass knob cross product — plus the paper-scale
# (2.2M rows, 200K-tuple buffers) larger-than-memory smoke. Hours, not
# minutes: keep it off the commit path.
if [ "${QSR_NIGHTLY:-0}" = "1" ]; then
    QSR_ORACLE_FULL=1 QSR_ORACLE_SEED=219803630 QSR_ORACLE_FAULTS=64 \
        cargo test --release -q --test oracle_sweep
    QSR_ORACLE_FULL=1 QSR_BATCH_SIZE=48 \
        cargo test --release -q --test oracle_sweep
    # Delta-chain lane: the widened corpus crossing every backend with
    # delta chaining and multi-generation retention windows.
    QSR_ORACLE_FULL=1 \
        cargo test --release -q --test oracle_sweep backend_delta_retention_chains
    cargo run --release -p qsr-bench --bin bench_pr8 -- --scale
fi
