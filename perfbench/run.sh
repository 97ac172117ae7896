#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run it; arguments
# go to the benchmark (see perfbench/main.ml). Run from the repository
# root:
#   bash perfbench/run.sh --workload scans --seed 1 --seconds 50 --trace 0
# Exits non-zero without a result when the build fails.
set -euo pipefail
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
