#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr, so the result stays the last line of
# stdout.  The dune cache is off: the build reads and writes only _build/
# inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/octbench.exe 1>&2
exec ./_build/default/perfbench/octbench.exe "$@"
