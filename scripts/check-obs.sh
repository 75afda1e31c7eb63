#!/bin/sh
# check-obs.sh — distributional-telemetry gate, run by the CI telemetry
# job. It checks the telemetry CLI surfaces: platinum-report
# -hist/-series emits valid JSON with schema_version 2 and a histograms
# and a series section, and -series -spans emits a validated Chrome
# trace with counter tracks whose JSON parses. The conservation tests
# behind these sinks (TestTelemetryConservation* at the repository
# root) run with the rest of `go test ./...`.
#
# Run from the repository root: ./scripts/check-obs.sh
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "check-obs: platinum-report -hist -series JSON (gauss 48x48 on 4 procs)"
go run ./cmd/platinum-report -app gauss -n 48 -procs 4 \
	-hist -series 1ms -json >"$TMP/report.json"
go run ./scripts/jsoncheck "$TMP/report.json"
grep -q '"schema_version": 2' "$TMP/report.json" || {
	echo "check-obs: report JSON missing schema_version 2" >&2
	exit 1
}
grep -q '"histograms"' "$TMP/report.json" || {
	echo "check-obs: report JSON missing histograms section" >&2
	exit 1
}
grep -q '"series"' "$TMP/report.json" || {
	echo "check-obs: report JSON missing series section" >&2
	exit 1
}

echo "check-obs: platinum-report -series -spans counter-track export"
go run ./cmd/platinum-report -app gauss -n 32 -procs 4 \
	-series 1ms -spans "$TMP/counters.json" >/dev/null
go run ./scripts/jsoncheck "$TMP/counters.json"
grep -q '"ph": "C"' "$TMP/counters.json" || {
	echo "check-obs: span export carries no counter tracks" >&2
	exit 1
}

echo "check-obs: OK"
