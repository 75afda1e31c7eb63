#!/bin/sh
# check-trace.sh — causal-trace export gate, run by the CI trace job.
#
#   1. Export a Chrome trace-event JSON from a small gauss run with
#      platinum-report -spans and verify the JSON parses.
#   2. Export the spans of larger gauss and mergesort runs. Every -spans
#      export first validates the recording and exits 1 on a
#      violation: spans must nest (children within parents, no partial
#      overlap on a track) and per-cause span durations must reconcile
#      EXACTLY with the engine's Account totals.
#
# Run from the repository root: ./scripts/check-trace.sh
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "check-trace: exporting Chrome trace (platinum-report -spans, gauss 32x32 on 4 procs)"
go run ./cmd/platinum-report -app gauss -n 32 -procs 4 -spans "$TMP/spans.json" >/dev/null

echo "check-trace: validating JSON parses"
go run ./scripts/jsoncheck "$TMP/spans.json"

echo "check-trace: validating span nesting and exact Account reconciliation"
go run ./cmd/platinum-report -app gauss -n 48 -procs 4 -spans "$TMP/gauss.json" >"$TMP/gauss.txt"
grep '^spans:' "$TMP/gauss.txt"
go run ./cmd/platinum-report -app mergesort -n 8192 -procs 4 -spans "$TMP/mergesort.json" >"$TMP/mergesort.txt"
grep '^spans:' "$TMP/mergesort.txt"

echo "check-trace: OK"
