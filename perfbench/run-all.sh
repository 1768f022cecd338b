#!/bin/sh
# Runs every workload once and prints each one's metrics, by name and
# with its unit, from the root of the repository:
#
#   perfbench/run-all.sh [seed] [seconds] [trace]
#
# Defaults: seed 1, 30 seconds, trace 0 (end-to-end metrics).
set -e
cd "$(dirname "$0")/.."
for workload in bulk-64m rebalance-1m handoff-4k kv-put-64k; do
    cargo run --quiet --offline --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "${1:-1}" --seconds "${2:-30}" --trace "${3:-0}"
done
