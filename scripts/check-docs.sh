#!/bin/sh
# check-docs.sh — documentation hygiene gate, run by the CI docs job.
#
#   1. gofmt -l must be clean.
#   2. Every package (the facade plus every internal package) must carry
#      a "// Package <name> ..." comment.
#   3. The README architecture diagram must mention every package that
#      `go list ./internal/...` reports, so the walkthrough cannot
#      silently drift from the tree.
#
# Run from the repository root: ./scripts/check-docs.sh
set -eu

fail=0

# 1. Formatting.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:"
	echo "$unformatted"
	fail=1
fi

# 2. Package comments.
for dir in . internal/*/; do
	if [ "$dir" = "." ]; then
		pkg=platinum # the facade package at the repo root
	else
		pkg=$(basename "$dir")
	fi
	if ! grep -lq "^// Package $pkg " "$dir"/*.go 2>/dev/null; then
		echo "godoc: package $pkg ($dir) has no '// Package $pkg ...' comment"
		fail=1
	fi
done

# 3. README diagram covers every internal package.
for import_path in $(go list ./internal/...); do
	short=${import_path#platinum/}
	if ! grep -q "$short" README.md; then
		echo "README: architecture section does not mention $short"
		fail=1
	fi
done

# 4. EXPERIMENTS.md documents every registered experiment by id
#    (cmd/platinum-bench -list is the registry), so new sweeps — like
#    pt-variants — cannot land without a paper-vs-measured section.
#    The id must appear backticked: a bare substring would let `table1`
#    pass on `table1-empirical`'s text, or `scaling` on prose.
for id in $(go run ./cmd/platinum-bench -list | awk '{print $1}'); do
	if ! grep -qF "\`$id\`" EXPERIMENTS.md; then
		echo "EXPERIMENTS.md: does not document experiment '$id' (platinum-bench -list)"
		fail=1
	fi
done

# 5. TOPOLOGY.md's embedded JSON examples and the shipped example files
#    must parse and validate with the real loader (mach.ParseTopology),
#    so the normative spec cannot drift from the parser.
if ! go run ./scripts/topocheck TOPOLOGY.md examples/topologies/*.json; then
	echo "TOPOLOGY.md: embedded examples failed loader validation"
	fail=1
fi

# 6. EXPERIMENTS.md documents every JSON field of the telemetry metrics
#    schema (the `json:"..."` tags in internal/metrics/telemetry.go),
#    so the schema-v2 sections cannot grow undocumented fields.
for tag in $(grep -o 'json:"[a-z0-9_]*' internal/metrics/telemetry.go | cut -d'"' -f2 | sort -u); do
	if ! grep -q "\`$tag\`" EXPERIMENTS.md; then
		echo "EXPERIMENTS.md: does not document telemetry JSON field '$tag' (internal/metrics/telemetry.go)"
		fail=1
	fi
done

# 7. README's "Go (1.NN+)" names the go directive in go.mod, so a
#    version bump cannot leave the stated requirement behind.
gomod=$(awk '$1 == "go" { print $2; exit }' go.mod | cut -d. -f1,2)
readme=$(grep -o 'Go (1\.[0-9]*+)' README.md | head -n 1 | sed 's/[^0-9.]//g')
if [ "$readme" != "$gomod" ]; then
	echo "README: states Go (${readme:-?}+) but go.mod says go $gomod"
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	echo "check-docs: FAILED"
	exit 1
fi
echo "check-docs: OK"
