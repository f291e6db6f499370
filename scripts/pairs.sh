#!/usr/bin/env bash
# Alternating benchmark pairs: this checkout against another commit.
#
#   scripts/pairs.sh --against <rev> --pairs N [--workload W] [--work DIR]
#
# Extracts <rev> with `git archive` into DIR/a (DIR defaults to a fresh
# temporary directory), builds the benchmark once on each side, each into a
# target directory of its own, then runs N pairs: in pair i both sides run
# `bench/run.sh --seed i [--workload W]`, the side that goes first
# alternating from pair to pair, with the side's bench/out removed before
# each run. Each side's result files are collected under DIR/results-a
# (<rev>) and DIR/results-b (this checkout), and the script ends with
# `bench/run.sh --compare DIR/results-a DIR/results-b`, whose verdict and
# exit status are the script's.
#
# Building the benchmark rewrites bench/Cargo.lock when it names crates the
# workspace no longer has; a lock file that was clean before the run is put
# back after it.
set -euo pipefail

usage() {
    echo "usage: scripts/pairs.sh --against <rev> --pairs N [--workload W] [--work DIR]" >&2
    exit 2
}

against="" pairs="" workload="" work=""
while [ $# -gt 0 ]; do
    case "$1" in
    --against) against="${2:-}" && shift 2 ;;
    --pairs) pairs="${2:-}" && shift 2 ;;
    --workload) workload="${2:-}" && shift 2 ;;
    --work) work="${2:-}" && shift 2 ;;
    *) usage ;;
    esac
done
[ -n "$against" ] && [[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

b="$(git rev-parse --show-toplevel)"
work="${work:-$(mktemp -d)}"
a="$work/a"
rm -rf "$a" "$work/results-a" "$work/results-b"
mkdir -p "$a" "$work/results-a" "$work/results-b"
git -C "$b" archive "$against" | tar -x -C "$a"
lock_was_clean=0
git -C "$b" diff --quiet -- bench/Cargo.lock && lock_was_clean=1

# The checkout of side a or b, and what to call it.
checkout() { if [ "$1" = a ]; then echo "$a"; else echo "$b"; fi; }
label() { if [ "$1" = a ]; then echo "$against"; else echo "this checkout"; fi; }

run() {
    local side="$1" seed="$2" tree
    tree="$(checkout "$side")"
    rm -rf "$tree/bench/out"
    echo "== pair $seed: $(label "$side")" >&2
    CARGO_TARGET_DIR="$work/target-$side" "$tree/bench/run.sh" --seed "$seed" \
        ${workload:+--workload "$workload"} >/dev/null
    cp "$tree"/bench/out/result-*.json "$work/results-$side/"
}

for side in a b; do
    echo "== building side $side" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$(checkout "$side")/bench/Cargo.toml"
done
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="a b"; else order="b a"; fi
    for side in $order; do run "$side" "$i"; done
done
rm -rf "$b/bench/out"
echo "== results in $work/results-a ($against) and $work/results-b (this checkout)" >&2
status=0
CARGO_TARGET_DIR="$work/target-b" "$b/bench/run.sh" --compare "$work/results-a" "$work/results-b" ||
    status=$?
if [ "$lock_was_clean" = 1 ]; then git -C "$b" checkout -- bench/Cargo.lock; fi
exit "$status"
