#!/bin/sh
# check-topo.sh — the CI topology-sweep smoke lane.
#
# Two gates that tier-1 `go test ./...` does not run:
#
#   1. A 64-node two-level sweep point runs end to end through
#      platinum-bench -topology: the topo-custom experiment boots the
#      machine from examples/topologies/cluster-64.json, runs the
#      verified TopoMix workload under every policy, and checks the
#      per-cause conservation invariant on each run (internal/exp's
#      runAll fails the experiment otherwise).
#   2. FuzzParseTopology runs for a fixed 15 s: the loader must never
#      panic, and every topology it accepts must re-validate and boot.
#      Tier-1 `go test` runs only its seed corpus.
#
# The loader validation of TOPOLOGY.md and the example files is
# check-docs.sh step 5; the built-in sweeps' quick variants are pinned
# by their goldens in TestAllExperimentsRunQuick.
#
# Usage (from the repository root): ./scripts/check-topo.sh
set -eu

echo "check-topo: 64-node sweep point (cluster-64.json, all policies)..."
go run ./cmd/platinum-bench -quick -topology examples/topologies/cluster-64.json -exp topo-custom

echo "check-topo: fuzzing the topology loader (15s)..."
go test ./internal/mach -run '^$' -fuzz '^FuzzParseTopology$' -fuzztime 15s

echo "check-topo: OK"
