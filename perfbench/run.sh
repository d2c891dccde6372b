#!/bin/sh
# Build the benchmark runner from this checkout's sources and run it.
#   sh perfbench/run.sh --workload compile-mix --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the runner's last stdout line is the result.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
