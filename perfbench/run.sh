#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# dune writes only under _build/ of the checkout (shared cache disabled).
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display=quiet ./perfbench/gridbench.exe -- "$@"
