#!/bin/sh
# bench-snapshot.sh — record a performance snapshot of the simulator's
# hot paths so perf regressions are visible as a diff.
#
# Runs the scheduler micro-benchmark (BenchmarkEngineStep), the two
# end-to-end application benchmarks (BenchmarkFig1Gauss,
# BenchmarkFig5MergeSort), and the telemetry A/B pair
# (BenchmarkGaussTelemetry: the same gauss run with distributional
# telemetry off and on) and writes one JSON document per line of
# `go test -bench` output:
#
#   {"name": ..., "ns_per_op": ..., "allocs_per_op": ..., "git_sha": ...}
#
# The telemetry-on entry additionally carries the fault-latency
# percentiles the histograms produce ("p50_fault_ns", "p99_fault_ns"),
# and the delta table prints them as columns, so a perf regression in
# the fault path is visible in the same diff as one in the simulator.
#
# BenchmarkVetFullTree is included too: its ns_per_op is the wall time
# of one complete analyzer-suite run over the module (what
# internal/analysis's TestModuleClean costs tier-1) and its "analyzers"
# field records how many analyzers that run executed, so the snapshot
# ties the check's cost to its coverage.
#
# Usage (from the repository root):
#
#   ./scripts/bench-snapshot.sh [out.json] [prev.json]
#
# The default output file is BENCH_0.json; pass a different name (e.g.
# BENCH_1.json after an optimization) and diff the two. When a previous
# snapshot is given as the second argument, a delta table (ns/op and
# allocs/op, percent change per benchmark) is printed after the run.
# Numbers are host-dependent — compare snapshots only from the same
# machine.
#
# A snapshot is only meaningful if it names the exact code it measured,
# so a dirty work tree fails the run; set ALLOW_DIRTY=1 to override
# (the recorded git_sha is then suffixed "-dirty").
set -eu

OUT=${1:-BENCH_0.json}
PREV=${2:-}
SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
BENCHTIME=${BENCHTIME:-1s}

if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	if [ "${ALLOW_DIRTY:-0}" = "1" ]; then
		SHA="$SHA-dirty"
		echo "bench-snapshot: WARNING: work tree is dirty; recording git_sha $SHA" >&2
	else
		echo "bench-snapshot: work tree is dirty — commit first so the snapshot's" >&2
		echo "bench-snapshot: git_sha names the measured code (or set ALLOW_DIRTY=1)" >&2
		exit 1
	fi
fi

if [ -n "$PREV" ] && [ ! -r "$PREV" ]; then
	echo "bench-snapshot: previous snapshot $PREV not readable" >&2
	exit 1
fi

echo "bench-snapshot: running benchmarks (benchtime $BENCHTIME)..."
RAW=$(go test -run '^$' \
	-bench '^(BenchmarkEngineStep|BenchmarkFig1Gauss|BenchmarkFig5MergeSort|BenchmarkGaussTelemetry|BenchmarkVetFullTree)$' \
	-benchmem -benchtime "$BENCHTIME" .)

echo "$RAW" | awk -v sha="$SHA" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
		ns = ""; allocs = ""; p50 = ""; p99 = ""; analyzers = ""
		for (i = 2; i < NF; i++) {
			if ($(i+1) == "ns/op") ns = $i
			if ($(i+1) == "allocs/op") allocs = $i
			if ($(i+1) == "p50-fault-ns") p50 = $i
			if ($(i+1) == "p99-fault-ns") p99 = $i
			if ($(i+1) == "analyzers") analyzers = $i
		}
		if (ns != "") {
			line = sprintf("{\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s",
				name, ns, (allocs == "" ? 0 : allocs))
			if (p50 != "") line = line sprintf(", \"p50_fault_ns\": %s, \"p99_fault_ns\": %s", p50, p99)
			if (analyzers != "") line = line sprintf(", \"analyzers\": %s", analyzers)
			printf "%s, \"git_sha\": \"%s\"}\n", line, sha
		}
	}
' >"$OUT"

if [ ! -s "$OUT" ]; then
	echo "bench-snapshot: no benchmark results parsed" >&2
	echo "$RAW" >&2
	exit 1
fi

echo "bench-snapshot: wrote $(wc -l <"$OUT") entries to $OUT"
cat "$OUT"

if [ -n "$PREV" ]; then
	echo ""
	echo "bench-snapshot: delta vs $PREV"
	# Join the two snapshots by benchmark name. Entries present in only
	# one snapshot are listed without a delta.
	awk '
		function field(line, key,   rest) {
			rest = line
			if (!sub(".*\"" key "\": *", "", rest)) return ""
			sub("[,}].*", "", rest)
			gsub("\"", "", rest)
			return rest
		}
		NR == FNR {
			n = field($0, "name")
			if (n != "") {
				pns[n] = field($0, "ns_per_op"); pal[n] = field($0, "allocs_per_op")
				pp50[n] = field($0, "p50_fault_ns"); pp99[n] = field($0, "p99_fault_ns")
			}
			next
		}
		{
			n = field($0, "name")
			if (n == "") next
			order[++count] = n
			ns[n] = field($0, "ns_per_op"); al[n] = field($0, "allocs_per_op")
			p50[n] = field($0, "p50_fault_ns"); p99[n] = field($0, "p99_fault_ns")
		}
		END {
			printf "%-40s %15s %15s %8s %12s %12s %8s %12s %12s\n",
				"benchmark", "ns/op(prev)", "ns/op(now)", "d%", "allocs(prev)", "allocs(now)", "d%", "p50-fault", "p99-fault"
			for (i = 1; i <= count; i++) {
				n = order[i]
				f50 = (p50[n] != "") ? p50[n] : "-"
				f99 = (p99[n] != "") ? p99[n] : "-"
				if (n in pns) {
					dns = (pns[n] > 0) ? sprintf("%+.1f", 100 * (ns[n] - pns[n]) / pns[n]) : "n/a"
					dal = (pal[n] > 0) ? sprintf("%+.1f", 100 * (al[n] - pal[n]) / pal[n]) : (al[n] > 0 ? "new" : "0=0")
					printf "%-40s %15s %15s %8s %12s %12s %8s %12s %12s\n", n, pns[n], ns[n], dns, pal[n], al[n], dal, f50, f99
				} else {
					printf "%-40s %15s %15s %8s %12s %12s %8s %12s %12s\n", n, "-", ns[n], "new", "-", al[n], "new", f50, f99
				}
			}
		}
	' "$PREV" "$OUT"
fi
