#!/usr/bin/env bash
# Fast-path wrapper for nb-lint: debug build (the linter is tiny and
# dependency-free, so this is seconds even from cold), no JSON artifact
# unless asked.
#
# Usage:
#   tools/lint.sh                       # lint the workspace, human report
#   tools/lint.sh --json LINT_report.json
#
# Exit codes: 0 clean, 1 new findings, 2 usage/IO error.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run -q -p nb-lint -- "$@"
