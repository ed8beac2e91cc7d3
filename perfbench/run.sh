#!/usr/bin/env bash
# Build the benchmark and the daemon from source, then run one workload:
#
#   bash perfbench/run.sh --workload compile-large --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout.  Build output goes to stderr; the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe ./bin/amdreld.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
