#!/usr/bin/env bash
# Build ekg-serve and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload cdc-control --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.  Run from the repository root or from anywhere else: the
# script changes to the root first.
set -euo pipefail
cd "$(dirname "$0")/.."
# the shared dune cache lives outside the checkout; build without it
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe ./bin/serve.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
