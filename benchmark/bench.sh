#!/usr/bin/env bash
# Build ipi and the benchmark from source, then run the benchmark runner
# with the given arguments (see run.ml). Run from the repository root:
#
#   bash benchmark/bench.sh --workload sweep-dedup --seed 1 --seconds 20 --trace 0
#   bash benchmark/bench.sh --seed 7 -o result.json
#   bash benchmark/bench.sh compare a.json b.json
#
# Build output goes to stderr, so the runner's last stdout line stays its
# JSON result.
set -euo pipefail
dune build --root . --cache=disabled bin/ipi.exe benchmark/run.exe \
  benchmark/layers.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
