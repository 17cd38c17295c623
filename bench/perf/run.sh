#!/usr/bin/env bash
# Build the benchmark from the sources of the checkout it sits in, then
# run it with the given arguments:
#
#   bash bench/perf/run.sh --workload e2_local --seed 5 --seconds 20 --trace 0
#
# Build output goes to stderr, so the benchmark's last stdout line stays
# its JSON result. Without the engine's sources the build fails and so
# does this script.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
