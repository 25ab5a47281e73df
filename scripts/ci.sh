#!/usr/bin/env sh
# Full local CI: lint gate plus the tier-1 verify from ROADMAP.md.
# Runs entirely offline — all dependencies are vendored in shims/.
set -eu
cd "$(dirname "$0")/.."

# Work-tree state on entry (empty outside a git checkout); compared at the
# end so that no stage can leave an artefact in the checkout unnoticed.
tree_before="$(git status --porcelain 2>/dev/null || true)"

cargo clippy --workspace --all-targets -- -D warnings

# Structural guard: the legacy hash `fnv1a` survives only as the fallback
# arm of the checksum module's verifier (DESIGN.md §10) and in test code.
# Outside `#[cfg(test)]` tails, `crates/*/src` may hold exactly its
# definition and that one call; any other hit — a write-side use creeping
# back in — fails the run.
legacy_calls="$(grep -rl 'fnv1a(' crates/*/src | while read -r f; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -c 'fnv1a(' | sed "s|^|$f |"
done | grep -v ' 0$' || true)"
if [ "$legacy_calls" != "crates/storage/src/checksum.rs 2" ]; then
    printf 'fnv1a( outside the checksum module (file, hits before its test tail):\n%s\n' \
        "$legacy_calls" >&2
    exit 1
fi

# Structural guard: rows are raw bytes read through safe code only, and
# nothing else in the engine needs `unsafe` either — every library and
# binary root under crates/ forbids it.
unguarded="$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs crates/*/src/bin/*.rs || true)"
if [ -n "$unguarded" ]; then
    printf 'crate roots without #![forbid(unsafe_code)]:\n%s\n' "$unguarded" >&2
    exit 1
fi
cargo build --release
cargo test -q

# Release-mode suite: the buffer pool and the parallel dump pipeline are
# concurrency-sensitive; optimized codegen shakes out timing-dependent
# bugs the dev profile can mask.
cargo test --workspace --release -q

# Threads sharing a small buffer pool: a race shows up in some schedules
# and not others, so the stress test gets three more rolls of the dice.
for _ in 1 2 3; do
    cargo test --release -q -p qsr-storage --test bufpool_scale threads_sharing
done

# Block NLJ scaling: time per inner row against an 8 192-row outer buffer
# must stay within 3x of a 64-row one (a lookup, not a scan of the
# buffer), timed once more with optimized codegen.
cargo test --release -q -p qsr-exec --test nlj_scale

# Differential suspend-point oracle, bounded CI shape: stride-1 sweep
# over the corpus plus 32 seeded fault schedules (the workspace test run
# above already covers the default seed; this pins an explicit one so
# printed repro tokens stay valid across environments). Set
# QSR_ORACLE_FULL=1 for the widened nightly-style run.
QSR_ORACLE_SEED=219803630 QSR_ORACLE_FAULTS=32 \
    cargo test --release -q --test oracle_sweep

# Observability smoke: the oracle smoke runs with a JSONL flight-recorder
# sink attached (QSR_TRACE) and every emitted line is validated against
# the checked-in event schema.
QSR_TRACE_DIR="$(mktemp -d)"
QSR_TRACE="$QSR_TRACE_DIR/trace.jsonl" \
    cargo run --release -p qsr-bench --bin oracle_smoke
cargo run --release -p qsr-bench --bin trace_check -- \
    "$QSR_TRACE_DIR/trace.jsonl" scripts/trace.schema.json
cargo run --release -p qsr-bench --bin trace_summary -- \
    "$QSR_TRACE_DIR/trace.jsonl"
rm -rf "$QSR_TRACE_DIR"

# Scheduler stage: the server binary end to end, inline (--workers 0) and
# on threads (tests/server_matrix.rs ran in the release workspace pass).
for workers in 0 2; do
    cargo run --release -q -p qsr-server --bin qsr-server -- \
        --sessions 3 --quantum 1500 --max-live 1 --workers "$workers"
done

# Vectorization stage: a deliberately awkward batch size (48, straddling
# page boundaries) re-runs the end-to-end and stride-7 oracle sweeps and
# the executor crate's operator-level suspend/resume tests in batch mode,
# so every suspend point is hit with partially filled batches.
QSR_BATCH_SIZE=48 cargo test --release -q --test end_to_end
QSR_ORACLE_STRIDE=7 QSR_BATCH_SIZE=48 \
    cargo test --release -q --test oracle_sweep
QSR_BATCH_SIZE=48 cargo test --release -q -p qsr-exec

# Repo benchmark (read-only use): the standalone benchmark crate
# path-depends on the engine crates' public API and nothing above builds
# it, so run its unit tests and a 1/10-size pass of the whole harness
# (two sets, every workload, traced and untraced).
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/repeat.sh --smoke

# Nightly lane (opt-in: QSR_NIGHTLY=1). The full-corpus oracle matrix —
# every scenario x config x batch combination at stride cfg.stride,
# including the grace/multipass knob cross product. Hours, not minutes:
# keep it off the commit path.
if [ "${QSR_NIGHTLY:-0}" = "1" ]; then
    QSR_ORACLE_FULL=1 QSR_ORACLE_SEED=219803630 QSR_ORACLE_FAULTS=64 \
        cargo test --release -q --test oracle_sweep
    QSR_ORACLE_FULL=1 QSR_BATCH_SIZE=48 \
        cargo test --release -q --test oracle_sweep
    # Delta-chain lane: the widened corpus crossing every backend with
    # delta chaining and multi-generation retention windows.
    QSR_ORACLE_FULL=1 \
        cargo test --release -q --test oracle_sweep backend_delta_retention_chains
fi

# No stage may write into the checkout: build outputs and benchmark
# results are ignored paths, anything else left behind fails the run.
tree_after="$(git status --porcelain 2>/dev/null || true)"
if [ "$tree_after" != "$tree_before" ]; then
    printf 'ci.sh changed the work tree:\n%s\n' "$tree_after" >&2
    exit 1
fi
