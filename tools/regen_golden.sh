#!/usr/bin/env bash
# Regenerates tests/golden/*.out from a build tree's ddpsim.
#
# Usage: tools/regen_golden.sh [BUILD_DIR] [NAME...]
#   BUILD_DIR defaults to ./build; NAMEs (e.g. shards5) limit the
#   rewrite to those cases, otherwise every *.args case is rerun.
#
# A golden records what the simulator outputs, so any change to one
# must be intended: diff the rewritten files and say in CHANGES.md
# which goldens changed and why.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}
shift || true
ddpsim=$build/tools/ddpsim
[[ -x $ddpsim ]] || { echo "no ddpsim at $ddpsim (build first)" >&2; exit 1; }

if (($# > 0)); then
    cases=()
    for name in "$@"; do cases+=("$root/tests/golden/$name.args"); done
else
    cases=("$root"/tests/golden/*.args)
fi

for args in "${cases[@]}"; do
    [[ -f $args ]] || { echo "no golden case $args" >&2; exit 1; }
    echo "regen ${args##*/}" >&2
    cmake -DDDPSIM="$ddpsim" -DCASE="${args%.args}" -DREGEN=ON \
          -P "$root/tests/golden/check_golden.cmake"
done
