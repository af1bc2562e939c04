#!/usr/bin/env bash
# Build ddpbench into build-bench/ and run DDPSim's benchmark.
#
#   benchmark/run.sh [--seed N] [--out DIR]
#       Every workload in its own process, serially: an untraced process
#       (end-to-end metrics) and a traced one (per-layer metrics). Writes
#       results.json, host_spans.json and the traced Perfetto timelines to
#       DIR (default build-bench/results), prints every metric, and exits
#       non-zero if any correctness check fails.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in one process; the last line of stdout is its JSON
#       result (the contract BENCHMARK.json describes).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

# Build output goes to stderr: stdout carries results only. Configure
# until a configure succeeds; after that the build re-runs it as needed.
if [[ ! -f "$build/Makefile" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 2 >&2

# Back malloc's heap with transparent huge pages: the simulator's
# working set is hundreds of MB of random access, and with 4 KiB pages
# its host time follows the host's page-walk (memory latency) noise,
# which swung repetitions by +-15% on a shared 4-vCPU host (+-3% with
# huge pages).
export GLIBC_TUNABLES=glibc.malloc.hugetlb=1

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$build/ddpbench" "$@"
    fi
done

seed=42
out="$build/results"
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        *) echo "usage: benchmark/run.sh [--seed N] [--out DIR]" >&2
           exit 2 ;;
    esac
done

mkdir -p "$out"
status=0
for w in paper-closed open-read-heavy shard-rebalance crash-recovery; do
    for trace in 0 1; do
        "$build/ddpbench" --workload "$w" --seed "$seed" --trace "$trace" \
            --out "$out" > /dev/null || status=1
    done
done
python3 "$here/report.py" "$out" "$root/BENCHMARK.json" || status=1
exit "$status"
