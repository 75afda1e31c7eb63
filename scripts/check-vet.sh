#!/bin/sh
# check-vet.sh — static-analysis gate, run by the CI vet job.
#
#   1. platinum-vet over the whole tree must be clean (exit 0) and stay
#      under a wall-time budget, so a loader or analyzer regression
#      fails the gate instead of quietly eating CI minutes. A run is
#      almost all type-checking; the five single-pass analyzers add
#      little. The suppression summary it prints keeps //lint:ignore
#      use visible.
#   2. platinum-vet over known-bad fixture packages must FAIL (exit 1)
#      with file:line findings — a self-test that the gate can actually
#      reject code, so a loader regression cannot silently turn the
#      suite into a no-op: chargecause (attribution), nodeterminism on
#      a fixture at an internal/ path (determinism), and atomicsafe.
#   3. With PLATINUM_VET_TOOLS=1 (set in CI, where the module proxy is
#      reachable), staticcheck and govulncheck also run, pinned by
#      version through `go run` so the tools are fetched reproducibly
#      and nothing needs a global install. Offline runs skip them.
#
# Run from the repository root: ./scripts/check-vet.sh
set -eu

STATICCHECK_VERSION=2025.1
GOVULNCHECK_VERSION=v1.1.4
VET_BUDGET_SECONDS=30

# Build once so the budget below times the analysis, not the toolchain.
go build -o /tmp/platinum-vet.bin ./cmd/platinum-vet

echo "== platinum-vet (tree must be clean, under ${VET_BUDGET_SECONDS}s)"
vet_start=$(date +%s)
/tmp/platinum-vet.bin ./...
vet_elapsed=$(($(date +%s) - vet_start))
echo "platinum-vet wall time: ${vet_elapsed}s (budget ${VET_BUDGET_SECONDS}s)"
if [ "$vet_elapsed" -gt "$VET_BUDGET_SECONDS" ]; then
	echo "check-vet: full-tree run exceeded the ${VET_BUDGET_SECONDS}s budget"
	exit 1
fi

# negative <package> <grep pattern>: the fixture run must exit nonzero
# and print a finding matching the pattern.
negative() {
	pkg=$1
	pattern=$2
	neg_out=$(/tmp/platinum-vet.bin -srcroot internal/analysis/testdata/src "$pkg" 2>&1) && {
		echo "check-vet: negative fixture $pkg unexpectedly passed:"
		echo "$neg_out"
		exit 1
	}
	if ! echo "$neg_out" | grep -q "$pattern"; then
		echo "check-vet: negative fixture $pkg failed without the expected finding ($pattern):"
		echo "$neg_out"
		exit 1
	fi
	echo "negative fixture $pkg rejected as expected"
}

echo "== platinum-vet (negative fixtures must fail)"
negative chargecause "fixture.go:.*\[platinum/chargecause\]"
negative platinum/internal/exp "fixture.go:.*\[platinum/nodeterminism\].*wall clock"
negative atomicsafe "fixture.go:.*\[platinum/atomicsafe\].*typed wrapper"

if [ "${PLATINUM_VET_TOOLS:-0}" = "1" ]; then
	echo "== staticcheck $STATICCHECK_VERSION"
	go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
	echo "== govulncheck $GOVULNCHECK_VERSION"
	go run "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" ./...
else
	echo "== staticcheck/govulncheck skipped (set PLATINUM_VET_TOOLS=1 to run; they fetch pinned tool modules)"
fi

echo "check-vet: OK"
