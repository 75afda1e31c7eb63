#!/bin/sh
# check-bench.sh — the CI bench-smoke lane.
#
# Two steps, both cheap enough for every push:
#
#   1. The alloc-regression tests (alloc_test.go), run WITHOUT -race so
#      testing.AllocsPerRun sees the real escape-analysis results. These
#      pin Advance, the fused handoff through the engine loop, Delay+Sync,
#      a whole Reset/Spawn/Run cycle, Charge and span Begin/End/Record at
#      zero steady-state allocations, a quick Fig. 1 regeneration at
#      its exact steady-state count (TestFig1GaussSteadyAllocs), and
#      the Chrome span export at the same count for 10,000 spans as
#      for 1,000 (TestChromeExportSteadyAllocs).
#   2. A short BenchmarkFig1Gauss run (-benchtime 100x) that must
#      complete. Its ns/op is printed, not gated: host time is compared
#      only by a same-host A/B (bench/ab.sh). Over 10 runs on a 2-vCPU
#      host, Fig1Gauss ns/op spread by 40% and its ratio to another
#      benchmark in the same process by over 50%, so neither a snapshot
#      from another host nor an in-process ratio makes a usable ceiling.
#
# Usage (from the repository root):
#
#   ./scripts/check-bench.sh
set -eu

echo "check-bench: alloc-regression tests (no -race)..."
# Capture first: in a pipeline, sh would take grep's status, not go test's.
ALLOCS=$(go test -count=1 -run 'ZeroAlloc$|SteadyAllocs$' -v .) || status=$?
echo "$ALLOCS" | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|PASS|FAIL|ok)' || true
if [ "${status:-0}" -ne 0 ]; then
	echo "check-bench: FAIL: alloc-regression tests" >&2
	exit 1
fi

echo "check-bench: Fig1Gauss smoke (benchtime 100x)..."
RAW=$(go test -run '^$' -bench '^BenchmarkFig1Gauss$' -benchmem -benchtime 100x .)
echo "$RAW"
if ! echo "$RAW" | grep -q '^BenchmarkFig1Gauss.* ns/op'; then
	echo "check-bench: BenchmarkFig1Gauss did not run" >&2
	exit 1
fi
echo "check-bench: OK"
