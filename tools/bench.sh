#!/usr/bin/env bash
# The CI gates: every committed report must be what the tree produces,
# at any worker count. Perf numbers are not here — they live in
# BENCHMARK.json / benchmark/README.md.
#
# Usage:
#   tools/bench.sh               # all four gates in the order below;
#                                # exits non-zero on the first failure
#   tools/bench.sh lint          # nb-lint: exit 1 on new findings or if
#                                # the committed LINT_report.json is stale
#   tools/bench.sh chaos-smoke   # 3-scenario chaos campaign at seed 11
#                                # (<30 s), writes CHAOS_campaign.json
#   tools/bench.sh federation    # 10-scenario federated-BDN campaign at 1
#                                # and 4 workers, writes BENCH_federation.json
#   tools/bench.sh scale         # small scale tiers at 1 and 4 workers
#                                # (~40 s), writes BENCH_scale.json
#
# Extra arguments after a gate name are forwarded to `repro`.
set -euo pipefail
cd "$(dirname "$0")/.."

# byte_compare_workers <subcommand> <json> <args…>: runs the campaign at
# 1 worker into <json> and at 4 workers into a scratch copy; the reports
# carry no wall-clock or worker field, so any differing byte is a broken
# worker-invariance contract. `repro` itself exits 1 on a failed
# invariant.
byte_compare_workers() {
    local sub=$1 json=$2
    shift 2
    ./target/release/repro "$sub" --workers 1 --out "$json" "$@"
    ./target/release/repro "$sub" --workers 4 --out "$json.workers4" "$@"
    if ! cmp -s "$json" "$json.workers4"; then
        echo "FAIL: $sub report differs between 1 and 4 workers" >&2
        exit 1
    fi
    rm -f "$json.workers4"
    echo "$sub report byte-identical at 1 and 4 workers"
}

gate() {
    local name=$1
    shift
    case "$name" in
    lint)
        # Regenerate-and-compare, so a stale committed report can never
        # pass (tools/lint.sh is the fast debug-build path).
        ./target/release/repro lint --out LINT_report.json.new "$@"
        if ! diff LINT_report.json LINT_report.json.new >&2; then
            echo "FAIL: committed LINT_report.json is stale (diff vs regenerated above)" >&2
            exit 1
        fi
        rm -f LINT_report.json.new
        echo "LINT_report.json matches the tree"
        ;;
    chaos-smoke)
        # The three seeds crates/bench/tests/chaos_campaign.rs pins:
        # scenario 0 is the scripted BDN state-loss restart, the other
        # two are generated plans.
        ./target/release/repro chaos --scenarios 3 --seed 11 --out CHAOS_campaign.json "$@"
        ;;
    federation)
        byte_compare_workers federation BENCH_federation.json --scenarios 10 --seed 2005 "$@"
        ;;
    scale)
        byte_compare_workers scale BENCH_scale.json --tier small --seed 2005 "$@"
        ;;
    *)
        echo "usage: tools/bench.sh [lint|chaos-smoke|federation|scale] [repro flags…]" >&2
        exit 2
        ;;
    esac
}

cargo build --release -p nb-bench
if [[ $# -eq 0 ]]; then
    for name in lint chaos-smoke federation scale; do
        gate "$name"
    done
else
    gate "$@"
fi
