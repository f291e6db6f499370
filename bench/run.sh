#!/usr/bin/env bash
# The one entry point of the repo benchmark. Builds the benchmark (release,
# offline) and then either runs it or compares results:
#
#   bench/run.sh [--workload W] [--seed N] [--trace] [--state-dir D]
#   bench/run.sh --compare A B
#   bench/run.sh --ledger OUT --commit ID --runs DIR --traced DIR
#
# Untraced, without --workload, every workload runs, each in a process of
# its own. With --trace one process runs the traced pass of every workload
# (whatever --workload says) and reports every per-layer metric. A run
# prints every metric as `name value unit`, then its checks and budget
# tables, and last one JSON object; results and traces are also written
# under bench/out/. The exit code is non-zero if the build fails, if any
# operation fails or any correctness check does not hold.
#
# The driver of BENCHMARK.json calls this with `--seconds S --trace 0|1`
# too: `--trace 0` and `--trace 1` mean without and with `--trace`;
# `--seconds` is taken and not used, because op counts are fixed and sized
# for the run length BENCHMARK.json states.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/perfbench"

case "${1:-}" in
--compare | --ledger) exec "$bin" "$@" ;;
esac

workload=""
trace=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --workload)
        workload="${2:?--workload needs a name}"
        shift 2
        ;;
    --seconds)
        shift 2
        ;;
    --trace)
        trace=1
        case "${2:-}" in
        0 | 1)
            trace="$2"
            shift
            ;;
        esac
        shift
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

if [ "$trace" = 1 ]; then
    exec "$bin" --trace ${args[@]+"${args[@]}"}
fi
if [ -n "$workload" ]; then
    exec "$bin" --workload "$workload" ${args[@]+"${args[@]}"}
fi
status=0
for w in wire_read ldap_write device_update cold_start; do
    "$bin" --workload "$w" ${args[@]+"${args[@]}"} || status=$?
done
exit "$status"
