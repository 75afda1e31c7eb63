#!/bin/sh
# check-vet.sh — third-party static analysis, run by the CI vet job.
#
# The project's own analyzers (internal/analysis) are not run here:
# TestModuleClean runs them over the whole module in `go test ./...`,
# and the fixture tests beside it prove each analyzer rejects bad code.
#
# With PLATINUM_VET_TOOLS=1 (set in CI, where the module proxy is
# reachable), staticcheck and govulncheck run, pinned by version
# through `go run` so the tools are fetched reproducibly and nothing
# needs a global install. Offline runs skip them.
#
# Run from the repository root: ./scripts/check-vet.sh
set -eu

STATICCHECK_VERSION=2025.1
GOVULNCHECK_VERSION=v1.1.4

if [ "${PLATINUM_VET_TOOLS:-0}" = "1" ]; then
	echo "== staticcheck $STATICCHECK_VERSION"
	go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
	echo "== govulncheck $GOVULNCHECK_VERSION"
	go run "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" ./...
else
	echo "== staticcheck/govulncheck skipped (set PLATINUM_VET_TOOLS=1 to run; they fetch pinned tool modules)"
fi

echo "check-vet: OK"
