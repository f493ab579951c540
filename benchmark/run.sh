#!/usr/bin/env bash
# Prints every metric of the repo benchmark, by name, with its unit and
# workload: the end-to-end metrics of each workload (untraced run), then
# its per-layer metrics (traced run + ex-situ probes).
#
#   benchmark/run.sh [seed] [seconds]        # defaults: 2005, BENCHMARK.json's run_seconds
#
# Fails if a validity gate fails or if the names printed differ, either
# way, from those BENCHMARK.json declares. About 3 minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-2005}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

for workload in paper_figs attach_geo pubsub_v1 pubsub_v2; do
  for trace in 0 1; do
    # The last line is the driver's JSON; everything above it is the table.
    "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
  done
done
