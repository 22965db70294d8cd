#!/bin/sh
# Builds the benchmark program and the server binary from this checkout and
# runs one benchmark run.  Run from the root of a checkout:
#
#   sh perfbench/run.sh --workload svc-lamport --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --selftest
#
# The last line of standard output is the run's JSON result.
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a checkout of the repository" >&2
  exit 2
fi
if ! dune build --root . ./perfbench/main.exe ./bin/ts_cli.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/main.exe \
  --ts-cli ./_build/default/bin/ts_cli.exe "$@"
