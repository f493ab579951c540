#!/usr/bin/env bash
# Is the benchmark steady enough to judge a change by? Runs every
# workload's end-to-end measurement as two sets of five invocations of
# the same code and seed, then checks that
#   - the simulated metrics and the failure count are identical across
#     all ten invocations,
#   - the two sets' medians of each host metric agree within half that
#     metric's bound in BENCHMARK.json,
# and prints the per-metric table (set medians, their difference, and
# the IQR/median spread over all ten) that perf PRs quote.
#
#   benchmark/repeat.sh [seed]               # default 2005; about 16 minutes
set -euo pipefail
cd "$(dirname "$0")/.."

seed=${1:-2005}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
out=benchmark/out/repeat
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)

for set in a b; do
  for i in 1 2 3 4 5; do
    for workload in paper_figs attach_geo pubsub_v1 pubsub_v2; do
      "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/${workload}_${set}${i}.json"
    done
  done
done

python3 - "$out" <<'PY'
import json, statistics, sys

out = sys.argv[1]
manifest = json.load(open("BENCHMARK.json"))
exact = {"sim_latency_p50_ms", "sim_latency_p99_ms", "wire_bytes_per_op", "events_per_op"}
ok = True
print(f"{'workload':11} {'metric':20} {'median A':>14} {'median B':>14} {'B vs A':>9} {'spread':>8} {'bound':>7}")
for w in [x["name"] for x in manifest["workloads"]]:
    runs = {s: [json.load(open(f"{out}/{w}_{s}{i}.json")) for i in range(1, 6)] for s in "ab"}
    for r in runs["a"] + runs["b"]:
        if not r["correct"] or r["failed"] != 0:
            ok = False
            print(f"FAIL {w}: an invocation reported correct={r['correct']} failed={r['failed']}")
    for m in manifest["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in runs["a"]]
        b = [r["metrics"][name]["value"] for r in runs["b"]]
        ma, mb = statistics.median(a), statistics.median(b)
        q = statistics.quantiles(a + b, n=4)
        spread = (q[2] - q[0]) / statistics.median(a + b)
        diff = mb / ma - 1
        verdict = ""
        if name in exact:
            if len(set(a + b)) != 1:
                ok, verdict = False, "FAIL: not identical across invocations"
        elif abs(diff) > bound / 2:
            ok, verdict = False, "FAIL: set medians differ by more than half the bound"
        print(f"{w:11} {name:20} {ma:14.5f} {mb:14.5f} {diff:+9.4f} {spread:8.4f} {bound:7.3f} {verdict}")
sys.exit(0 if ok else 1)
PY
