#!/bin/sh
# check-topo.sh — the CI topology-sweep smoke lane.
#
# Four gates, all well under the bench-smoke budget:
#
#   1. The shipped example topologies and TOPOLOGY.md's embedded JSON
#      validate with the real loader (scripts/topocheck).
#   2. A 64-node two-level sweep point runs end to end through
#      platinum-bench -topology: the topo-custom experiment boots the
#      machine from examples/topologies/cluster-64.json, runs the
#      verified TopoMix workload under every policy, and checks the
#      per-cause conservation invariant on each run (runTopoMixAt
#      fails the experiment otherwise).
#   3. The built-in sweeps' quick variants (topo-nodes up to 64 nodes,
#      topo-skew, topo-tiers) complete with conservation intact.
#   4. FuzzParseTopology runs for a fixed 15 s: the loader must never
#      panic, and every topology it accepts must re-validate and boot.
#      Tier-1 `go test` runs only its seed corpus.
#
# Usage (from the repository root): ./scripts/check-topo.sh
set -eu

echo "check-topo: loader validation (TOPOLOGY.md + examples)..."
go run ./scripts/topocheck TOPOLOGY.md examples/topologies/*.json

echo "check-topo: 64-node sweep point (cluster-64.json, all policies)..."
go run ./cmd/platinum-bench -quick -topology examples/topologies/cluster-64.json -exp topo-custom

echo "check-topo: built-in sweeps (quick)..."
go run ./cmd/platinum-bench -quick -exp topo-nodes,topo-skew,topo-tiers

echo "check-topo: fuzzing the topology loader (15s)..."
go test ./internal/mach -run '^$' -fuzz '^FuzzParseTopology$' -fuzztime 15s

echo "check-topo: OK"
