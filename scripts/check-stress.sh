#!/bin/sh
# check-stress.sh — bounded stress soak, run by the CI stress job.
#
#   1. A fixed-seed fault-injection run: 20000 ops, seed 1, every
#      operation followed by Validate + CheckConservation + shadow
#      data check, and the completed run by frame conservation and
#      span reconciliation (each span-carried cause's Self sum equals
#      its account total). Deterministic, so a failure here is a real
#      regression, never flake.
#   2. A short wall-clock soak over consecutive seeds with faults on,
#      to cover fresh schedules as the protocol evolves; every run
#      reconciles its spans too. On failure the harness prints a
#      shrunk seed+ops reproducer to stderr.
#
# Run from the repository root: ./scripts/check-stress.sh
set -eu

SOAK=${STRESS_SOAK:-60s}

echo "check-stress: fixed-seed run (seed 1, 20000 ops, faults on)"
go run ./cmd/platinum-stress -seed 1 -ops 20000 -faults

echo "check-stress: soak ($SOAK, consecutive seeds, faults on)"
go run ./cmd/platinum-stress -seed 2 -ops 5000 -faults -duration "$SOAK"

echo "check-stress: OK"
