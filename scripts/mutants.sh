#!/usr/bin/env sh
# Mutation check over the one suspend/resume body (DESIGN.md §3): every
# mutant in the list must be *killed* — some test of the gate must fail on
# the mutated tree — or the gate is blind to that mistake.
#
#   scripts/mutants.sh [list]      (default list: scripts/mutants.list)
#
# Each list line is `file<TAB>fragment<TAB>replacement`; `\n` in a fragment
# or replacement stands for a newline, and a `# ` line names the mutant
# after it. The
# fragment must occur exactly once in the file. The tree is copied once to
# a temp dir (so the build cache carries over between mutants); for each
# mutant the file is restored, mutated, and the gate runs until a stage
# fails: tier 1 (`cargo build --release && cargo test -q`), then
# `cargo test -p qsr-exec --release`, then the oracle's quick lane. The
# script prints one `killed` or `survived` line per mutant and exits 1 if
# any mutant survived or did not apply.
set -eu
cd "$(dirname "$0")/.."
repo="$(pwd)"
list="${1:-scripts/mutants.list}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tar --exclude=./target --exclude=./.git --exclude=./benchmark/target \
    --exclude=./.bench_build -cf - . | (cd "$work" && tar -xf -)
export CARGO_TARGET_DIR="$work/target"

gate() {
    (cd "$work" && cargo build --release -q && cargo test -q) >/dev/null 2>&1 || return 1
    (cd "$work" && cargo test -q -p qsr-exec --release) >/dev/null 2>&1 || return 1
    (cd "$work" && QSR_ORACLE_SEED=219803630 QSR_ORACLE_FAULTS=32 \
        cargo test --release -q --test oracle_sweep) >/dev/null 2>&1 || return 1
}

status=0
n=0
name=''
while IFS="$(printf '\t')" read -r file fragment replacement; do
    case "$file" in
        '') continue ;;
        '#'*) name="${file#'# '}" && continue ;;
    esac
    n=$((n + 1))
    cp "$repo/$file" "$work/$file"
    if ! python3 - "$work/$file" "$fragment" "$replacement" <<'PY'
import sys
path, frag, repl = sys.argv[1], sys.argv[2].replace("\\n", "\n"), sys.argv[3].replace("\\n", "\n")
src = open(path).read()
if src.count(frag) != 1:
    sys.exit(f"fragment occurs {src.count(frag)} times")
open(path, "w").write(src.replace(frag, repl))
PY
    then
        printf 'mutant %d (%s): did not apply\n' "$n" "$name"
        status=1
        continue
    fi
    if gate </dev/null; then
        printf 'mutant %d (%s): survived\n' "$n" "$name"
        status=1
    else
        printf 'mutant %d (%s): killed\n' "$n" "$name"
    fi
    cp "$repo/$file" "$work/$file"
done <"$list"
exit "$status"
