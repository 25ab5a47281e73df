#!/usr/bin/env sh
# Full local CI: lint gate plus the tier-1 verify from ROADMAP.md.
# Runs entirely offline — all dependencies are vendored in shims/.
set -eu
cd "$(dirname "$0")/.."

# Work-tree state on entry (empty outside a git checkout); compared at the
# end so that no stage can leave an artefact in the checkout unnoticed.
tree_before="$(git status --porcelain 2>/dev/null || true)"

# Clippy also holds two structural guards, through each crate's own
# clippy.toml (`disallowed-methods`, which resolves imports and aliases):
# qsr-storage, qsr-core and qsr-exec start no thread — a suspend writes
# its dump blobs and a resume reads them on the query's own thread
# (DESIGN.md §11), only qsr-server owns threads — and none of the seven
# library crates reads the environment: every engine setting is an API
# value (DESIGN.md §14). Test code that needs such a call carries an
# `#[allow(clippy::disallowed_methods)]`.
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

# Structural guard: dump blocks are written as row records only; the
# column-major format of earlier builds is read, never written (DESIGN.md
# §16). Outside `#[cfg(test)]` tails and comments, `crates/*/src` may
# name `FORMAT_COLUMNAR` exactly twice, both in colblock.rs: its
# definition and the decoder's format check. Any other hit — a write path
# emitting columnar blocks again — fails the run.
columnar_uses="$(grep -rl 'FORMAT_COLUMNAR' crates/*/src | while read -r f; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^ *//' | grep -c 'FORMAT_COLUMNAR' | sed "s|^|$f |"
done | grep -v ' 0$' || true)"
if [ "$columnar_uses" != "crates/storage/src/colblock.rs 2" ]; then
    printf 'FORMAT_COLUMNAR outside the block decoder (file, hits before its test tail):\n%s\n' \
        "$columnar_uses" >&2
    exit 1
fi

# Structural guard: the engine runs one suspend-plan solver, the tree DP
# in qsr-core (DESIGN.md §4); qsr-mip is the reference it is tested
# against, reached only through qsr-core's `solve_mip`. Outside
# `#[cfg(test)]` tails and comments, crates/{storage,exec,server}/src may
# not name `qsr_mip` — any hit fails the run.
mip_uses="$(grep -rl 'qsr_mip' crates/storage/src crates/exec/src crates/server/src | while read -r f; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^ *//' | grep -c 'qsr_mip' | sed "s|^|$f |"
done | grep -v ' 0$' || true)"
if [ -n "$mip_uses" ]; then
    printf 'qsr_mip named in an engine crate (file, hits before its test tail):\n%s\n' \
        "$mip_uses" >&2
    exit 1
fi

# Structural guard: a suspend has one write mode (DESIGN.md §18). Every
# suspend writes each dump as a delta frame or in full, whichever is
# smaller, and every commit keeps only the newest generation; neither is
# a setting. Outside `#[cfg(test)]` tails and comments, `crates/*/src`
# may not name `QSR_DELTA` or `QSR_KEEP_GENERATIONS`, nor read the
# ignored `SuspendOptions` fields (`.delta`, `.keep_generations`) — the
# fields' own declarations have no dot and do not match. Any hit fails
# the run.
mode_uses="$(grep -rlE 'QSR_DELTA|QSR_KEEP_GENERATIONS|\.delta\b|\.keep_generations\b' crates/*/src | while read -r f; do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^ *//' \
        | grep -cE 'QSR_DELTA|QSR_KEEP_GENERATIONS|\.delta\b|\.keep_generations\b' | sed "s|^|$f |"
done | grep -v ' 0$' || true)"
if [ -n "$mode_uses" ]; then
    printf 'suspend-write mode read in an engine crate (file, hits before its test tail):\n%s\n' \
        "$mode_uses" >&2
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

# Deleted-settings lane: older builds read these five variables as
# aliases of API values (the memory envelope, the suspend backend, the
# server's --workers/--sla-budget). Nothing reads them now, so the tier-1
# suite must pass unchanged with each set to a non-default value.
QSR_SUSPEND_BACKEND=memory QSR_MEM_BUDGET=3 QSR_MERGE_FANIN=2 QSR_WORKERS=5 \
    QSR_SLA_BUDGET=0.5 cargo test -q

# Release-mode suite: the buffer pool and the threaded server are
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

# Scorecard pin: every cost-unit column of the paper reproduction must
# match the checked-in experiments_output.md byte for byte. The binary
# writes experiments_output.md into its working directory, so it runs in
# a temp dir. Wall-clock values differ run to run and are blanked on both
# sides first: each table column whose header ends in "ms", and the
# total wall time.
blank_timings() {
    awk -F'|' -v OFS='|' '
        /^\|/ {
            if (!in_table) {
                in_table = 1
                split("", timed)
                for (i = 2; i < NF; i++) {
                    h = $i
                    gsub(/^ +| +$/, "", h)
                    if (h ~ /ms$/) timed[i] = 1
                }
            } else {
                for (i in timed) $i = " - "
            }
            print
            next
        }
        { in_table = 0 }
        /^Total wall time: / { sub(/[0-9.]+s;/, "-;") }
        { print }' "$1"
}
repo="$(pwd)"
EXP_DIR="$(mktemp -d)"
(cd "$EXP_DIR" && cargo run --release -q --manifest-path "$repo/Cargo.toml" \
    -p qsr-bench --bin all_experiments >/dev/null)
blank_timings experiments_output.md >"$EXP_DIR/expected.md"
blank_timings "$EXP_DIR/experiments_output.md" >"$EXP_DIR/actual.md"
if ! diff -u "$EXP_DIR/expected.md" "$EXP_DIR/actual.md" >&2; then
    printf 'all_experiments cost units differ from experiments_output.md\n' >&2
    exit 1
fi
rm -rf "$EXP_DIR"

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

# Examples stage: every example runs to completion and exits 0. Each one
# asserts its own output against an uninterrupted run. The exception is
# golden_suspend, a generator that writes a new golden directory. Every
# example removes the scratch directories it makes: a `qsr-*` entry of the
# temp dir that appears during the stage fails it.
qsr_temp_entries() { ls -1 "${TMPDIR:-/tmp}" | grep '^qsr-' || true; }
temp_before="$(mktemp)"
qsr_temp_entries >"$temp_before"
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    [ "$name" = golden_suspend ] && continue
    cargo run --release -q --example "$name" >/dev/null
done
temp_leaked="$(qsr_temp_entries | grep -vxFf "$temp_before" || true)"
rm -f "$temp_before"
if [ -n "$temp_leaked" ]; then
    printf 'examples left temp-dir entries behind:\n%s\n' "$temp_leaked" >&2
    exit 1
fi

# Scheduler stage: the server binary end to end, inline (--workers 0) and
# on threads (tests/server_matrix.rs ran in the release workspace pass).
for workers in 0 2; do
    cargo run --release -q -p qsr-server --bin qsr-server -- \
        --sessions 3 --quantum 1500 --max-live 1 --workers "$workers"
done

# Repo benchmark (read-only use): the standalone benchmark crate
# path-depends on the engine crates' public API and nothing above builds
# it, so run its unit tests and a 1/10-size pass of the whole harness
# (two sets, every workload, traced and untraced).
cargo test -q --manifest-path benchmark/Cargo.toml
bash benchmark/repeat.sh --smoke

# Nightly lane (opt-in: QSR_NIGHTLY=1). The full-corpus oracle matrix —
# every scenario x config combination at stride cfg.stride,
# including the grace/multipass knob cross product. Hours, not minutes:
# keep it off the commit path.
if [ "${QSR_NIGHTLY:-0}" = "1" ]; then
    QSR_ORACLE_FULL=1 QSR_ORACLE_SEED=219803630 QSR_ORACLE_FAULTS=64 \
        cargo test --release -q --test oracle_sweep
    # Delta-chain lane: the widened corpus crossing every backend with
    # repeated suspends whose dumps chain.
    QSR_ORACLE_FULL=1 \
        cargo test --release -q --test oracle_sweep backend_delta_chains
fi

# No stage may write into the checkout: build outputs and benchmark
# results are ignored paths, anything else left behind fails the run.
tree_after="$(git status --porcelain 2>/dev/null || true)"
if [ "$tree_after" != "$tree_before" ]; then
    printf 'ci.sh changed the work tree:\n%s\n' "$tree_after" >&2
    exit 1
fi
