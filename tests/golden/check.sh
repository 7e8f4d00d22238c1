#!/usr/bin/env bash
# Pins the paper reproduction's modeled outputs.  Runs each of the seven
# pure paper harnesses at DYNASPARSE_QUICK=1 in release and compares the
# JSON it writes under target/reports/ with its pinned copy in this
# directory, byte for byte.  Exits non-zero, printing a diff, when any
# modeled number moved.
#
# Every field of these seven reports is modeled (accelerator cycles and
# latencies, densities, speedups, the soft processor's overhead): none
# reads the clock or the host cost fit, so none is left out.  The two
# harnesses that time the host, table09_preprocessing and
# end_to_end_breakdown, are not pinned.
#
#   tests/golden/check.sh           # compare
#   tests/golden/check.sh --bless   # rewrite the pinned copies
#
# A change that moves a pinned number names each number that moved, and
# why, when it re-blesses.
set -euo pipefail
cd "$(dirname "$0")/../.."

harnesses=(
    fig02_feature_density
    fig11_12_pruned_speedup
    fig13_runtime_overhead
    fig14_cpu_gpu
    table07_unpruned
    table08_sparsity_bands
    table10_fpga_baselines
)

cargo build --release --quiet -p dynasparse-bench --bins
status=0
for harness in "${harnesses[@]}"; do
    rm -f "target/reports/$harness.json"
    DYNASPARSE_QUICK=1 "target/release/$harness" > /dev/null
    if [[ "${1:-}" == "--bless" ]]; then
        cp "target/reports/$harness.json" "tests/golden/$harness.json"
    elif ! diff -u "tests/golden/$harness.json" "target/reports/$harness.json"; then
        echo "$harness: modeled output differs from tests/golden/$harness.json" >&2
        status=1
    fi
done
exit "$status"
