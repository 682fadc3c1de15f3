#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it. Run from the
# repository root; arguments go to e2e.exe unchanged:
#
#   bash bench/e2e/run.sh --workload bfs-paper --seed 3 --seconds 20 --trace 0
#
# The build writes only to _build under the working directory: dune's
# shared cache is disabled. Build messages go to stderr, so the last line
# of stdout stays the benchmark's JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
