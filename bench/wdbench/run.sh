#!/usr/bin/env bash
# Builds the CLI and the harness from source, then runs wdbench:
#
#   bash bench/wdbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere; it works from the repository root. Build output goes
# to standard error; the last line of standard output is the result
# object (see bench/wdbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . bin/wdsparql.exe bench/wdbench/wdbench.exe >&2
exec _build/default/bench/wdbench/wdbench.exe run "$@"
