#!/usr/bin/env bash
# The CI gates are `repro gate [lint|bench|figs|chaos|federation|scale|census]`:
# clippy and the benchmark crate's build, then every committed figure, report
# and the census, regenerated in memory (reports at 1 and 4 workers), must
# match its committed bytes. This
# wrapper stays because benchmark/README.md names it.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p nb-bench && exec ./target/release/repro gate "$@"
