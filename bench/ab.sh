#!/usr/bin/env bash
# ab.sh — same-host A/B of two commits on the host-time benchmark.
#
#   bash bench/ab.sh BASE [HEAD] [workload...]
#
# Exports both commits with git archive into a temporary directory,
# puts this checkout's bench/ into both (so both sides run identical
# benchmark code), builds each side once, then runs AB_PAIRS (default
# 10) pairs per workload, alternating which side runs first, each run
# AB_SECONDS (default 15) measured seconds with -trace 0 and pair i on
# seed i+1 for both sides. It then prints each side's identity and, per
# workload and end-to-end metric, both sides' median and quartiles, the
# share of pairs the head won and a verdict (gain, no change,
# regression, unresolved), plus DIGEST CHANGED wherever the two commits
# simulated different counters. Runs from different CPU models are not
# compared. The raw results stay in the printed directory.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bash bench/ab.sh BASE [HEAD] [workload...]" >&2
	exit 2
fi
base=$1
head=${2:-HEAD}
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(gauss-16p gauss-1p topomix-256 gauss-16p-observed suite-quick)
fi
pairs=${AB_PAIRS:-10}
seconds=${AB_SECONDS:-15}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/platinum-ab.XXXXXX")
echo "ab: working in $tmp" >&2

for side in base head; do
	rev=$base
	[ "$side" = head ] && rev=$head
	sha=$(git -C "$root" rev-parse --short=12 "$rev^{commit}")
	mkdir -p "$tmp/src-$side"
	git -C "$root" archive "$sha" | tar -x -C "$tmp/src-$side"
	rm -rf "$tmp/src-$side/bench"
	cp -R "$root/bench" "$tmp/src-$side/bench"
	GOFLAGS= GOTOOLCHAIN=local go build -C "$tmp/src-$side" -buildvcs=false \
		-ldflags "-X main.gitRev=$sha" -o "$tmp/$side.bin" ./bench
	echo "ab: $side = $rev ($sha)" >&2
done
rm -rf "$tmp/src-base" "$tmp/src-head"
mkdir -p "$tmp/runs"

for ((i = 0; i < pairs; i++)); do
	order=(base head)
	if ((i % 2)); then
		order=(head base)
	fi
	for w in "${workloads[@]}"; do
		for side in "${order[@]}"; do
			dir=$(printf '%s/runs/%s-%02d-%s' "$tmp" "$side" "$i" "$w")
			# A run that fails verification still writes its result; one
			# that crashes leaves only its .stderr file, and the
			# comparison counts it as a failed run of its side.
			"$tmp/$side.bin" -workload "$w" -seed $((i + 1)) -seconds "$seconds" -trace 0 \
				-out "$dir" >/dev/null 2>"$dir.stderr" || true
		done
	done
	echo "ab: pair $((i + 1))/$pairs done" >&2
done

"$tmp/head.bin" -ab "$tmp/runs"
