#!/bin/sh
# check-bench.sh — the CI bench-smoke lane.
#
# A short BenchmarkFig1Gauss run (-benchtime 100x) and a short
# BenchmarkObservedExport run (-benchtime 5x, -benchmem) that must both
# complete; no tier-1 test runs the benchmarks. The second prints the
# per-step cost of an observed run's export (span sort, Chrome export,
# report, timeline) without a full bench/ run. Their ns/op is printed,
# not gated: host time is compared only by a same-host A/B
# (bench/ab.sh). Over 10
# runs on a 2-vCPU host, Fig1Gauss ns/op spread by 40% and its ratio to
# another benchmark in the same process by over 50%, so neither a
# snapshot from another host nor an in-process ratio makes a usable
# ceiling.
#
# The alloc-regression pins (alloc_test.go, `-run
# 'ZeroAlloc$|SteadyAllocs$'`) are not repeated here: the CI test job's
# `go test ./...` runs them without -race, and they skip only under
# -race.
#
# Usage (from the repository root):
#
#   ./scripts/check-bench.sh
set -eu

echo "check-bench: Fig1Gauss smoke (benchtime 100x)..."
RAW=$(go test -run '^$' -bench '^BenchmarkFig1Gauss$' -benchmem -benchtime 100x .)
echo "$RAW"
if ! echo "$RAW" | grep -q '^BenchmarkFig1Gauss.* ns/op'; then
	echo "check-bench: BenchmarkFig1Gauss did not run" >&2
	exit 1
fi

echo "check-bench: ObservedExport smoke (benchtime 5x)..."
RAW=$(go test -run '^$' -bench '^BenchmarkObservedExport$' -benchmem -benchtime 5x .)
echo "$RAW"
for step in spans chrome report timeline; do
	if ! echo "$RAW" | grep -q "^BenchmarkObservedExport/$step.* ns/op"; then
		echo "check-bench: BenchmarkObservedExport/$step did not run" >&2
		exit 1
	fi
done
echo "check-bench: OK"
