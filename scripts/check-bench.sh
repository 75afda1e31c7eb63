#!/bin/sh
# check-bench.sh — the CI bench-smoke lane.
#
# Two gates, both cheap enough for every push:
#
#   1. The alloc-regression tests (alloc_test.go), run WITHOUT -race so
#      testing.AllocsPerRun sees the real escape-analysis results. These
#      pin Advance, the fused handoff through the engine loop, Delay+Sync,
#      a whole Reset/Spawn/Run cycle, Charge and span Begin/End/Record at
#      zero steady-state allocations, and a quick Fig. 1 regeneration at
#      its exact steady-state count (TestFig1GaussSteadyAllocs).
#   2. A short BenchmarkFig1Gauss run (-benchtime 100x) compared against
#      the committed reference snapshot (BENCH_2.json by default): ns/op
#      is host-dependent, so its 2x ceiling only catches gross
#      regressions (override the reference with BENCH_REF, or skip the
#      time gate with BENCH_SKIP_NS=1 on exotic runners).
#
# Usage (from the repository root):
#
#   ./scripts/check-bench.sh
set -eu

REF=${BENCH_REF:-BENCH_2.json}

echo "check-bench: alloc-regression tests (no -race)..."
go test -count=1 -run 'ZeroAlloc$|SteadyAllocs$' -v . | grep -E '^(=== RUN|--- (PASS|FAIL|SKIP)|PASS|FAIL|ok)'

echo "check-bench: Fig1Gauss smoke (benchtime 100x)..."
RAW=$(go test -run '^$' -bench '^BenchmarkFig1Gauss$' -benchmem -benchtime 100x .)
echo "$RAW"

NS=$(echo "$RAW" | awk '/^BenchmarkFig1Gauss/ { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }')
if [ -z "$NS" ]; then
	echo "check-bench: could not parse benchmark output" >&2
	exit 1
fi

if [ ! -r "$REF" ]; then
	echo "check-bench: reference snapshot $REF not found" >&2
	exit 1
fi
REF_LINE=$(grep '"BenchmarkFig1Gauss"' "$REF" || true)
if [ -z "$REF_LINE" ]; then
	echo "check-bench: $REF has no BenchmarkFig1Gauss entry" >&2
	exit 1
fi
REF_NS=$(echo "$REF_LINE" | sed 's/.*"ns_per_op": *\([0-9.]*\).*/\1/')

echo "check-bench: now ns/op=$NS; reference ns/op=$REF_NS (2x ceiling)"

if [ "${BENCH_SKIP_NS:-0}" != "1" ] &&
	awk -v n="$NS" -v r="$REF_NS" 'BEGIN { exit !(n > 2 * r) }'; then
	echo "check-bench: FAIL: ns/op $NS exceeds 2x reference $REF_NS" >&2
	exit 1
fi
echo "check-bench: OK"
