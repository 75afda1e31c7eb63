#!/usr/bin/env bash
# run.sh — build the host-time benchmark from this checkout and run it.
#
#   bash bench/run.sh [flags]      (flags: see bench/README.md)
#
# The binary, the Go build cache and every temporary file go under
# $CARGO_TARGET_DIR when it is set (a relative path is taken from the
# repository root), and under $TMPDIR/platinum-bench otherwise. The
# build fails, and no result is printed, when the simulator's sources
# are not beside bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-${TMPDIR:-/tmp}/platinum-bench}
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=

# Host identity for the result file: the commit, marked -dirty when the
# tree has uncommitted changes. The ceiling keeps git from finding a
# repository that merely contains this checkout.
rev=unknown
if sha=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	rev=$sha
	if [ -n "$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" status --porcelain 2>/dev/null)" ]; then
		rev=$sha-dirty
	fi
fi

go build -buildvcs=false -ldflags "-X main.gitRev=$rev" -o "$out/platinum-bench" ./bench
exec "$out/platinum-bench" "$@"
