package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"platinum/internal/analysis"
)

// fixtures is the shared golden fixture tree, reused here to exercise
// the CLI end to end: exit codes, text and JSON output.
const fixtures = "../../internal/analysis/testdata/src"

func TestNegativeFixtureFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-srcroot", fixtures, "chargecause"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "fixture.go:") {
		t.Errorf("findings lack file:line positions:\n%s", text)
	}
	if !strings.Contains(text, "[platinum/chargecause]") {
		t.Errorf("findings lack the analyzer tag:\n%s", text)
	}
}

func TestCleanFixturePasses(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-srcroot", fixtures, "suppressclean"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; out: %s stderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "1 suppressed") {
		t.Errorf("suppression is not counted in the summary:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-srcroot", fixtures, "-json", "suppress"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errb.String())
	}
	var res analysis.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not valid Result JSON: %v\n%s", err, out.String())
	}
	if len(res.Findings) == 0 {
		t.Errorf("JSON output carries no findings")
	}
	if got := len(res.Suppressed); got != 2 {
		t.Errorf("JSON suppressed = %d, want 2", got)
	}
	// Four bad ignores: the fixture's three malformed directives, plus
	// the well-formed-but-unused platinum/spanpair directive, which the
	// full CLI suite (spanpair included) judges stale.
	if got := len(res.BadIgnores); got != 4 {
		t.Errorf("JSON bad_ignores = %d, want 4: %+v", got, res.BadIgnores)
	}
}

func TestListMatchesRegistry(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out, &out); code != 0 {
		t.Fatalf("-list exit = %d, want 0: %s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	all := analysis.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(all), out.String())
	}
	for i, an := range all {
		if !strings.HasPrefix(lines[i], an.Name+"\t") {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], an.Name+"\t")
		}
	}
}
