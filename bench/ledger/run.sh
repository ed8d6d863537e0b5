#!/usr/bin/env bash
# Build the ledger from source and run one (workload, seed) with it.
# Run from the repository root:
#
#   bash bench/ledger/run.sh --workload fv2d_cold --seed 1 --seconds 20 --trace 0
#
# The build output goes to stderr, so the last line on stdout is the
# ledger's JSON result.  Dune's shared cache stays off so the build
# writes nothing outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe run "$@"
