#!/bin/sh
# Builds the benchmark from source, then runs it.  Run from the root of
# a checkout:
#   sh perfbench/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#   sh perfbench/run.sh --all --seed 1 --seconds 15
# Build output goes to stderr; the last line of stdout is the result.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
