#!/usr/bin/env bash
# Build the benchmark from source and run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds N --trace 0|1 [--out FILE]
#
# Run it from the root of a checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and perfbench/ not found)" >&2
  exit 2
fi

# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perf.exe >&2
exec ./_build/default/perfbench/perf.exe "$@"
