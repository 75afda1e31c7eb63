package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runCmd drives the CLI with args and returns stdout, stderr, and the
// exit code.
func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestListExperiments(t *testing.T) {
	out, errs, code := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errs)
	}
	for _, id := range []string{"fig1", "fig5", "table1"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	_, _, code := runCmd(t, "-exp", "nosuch")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

// TestStrayArgumentExitsTwo checks that a positional argument is
// rejected rather than ignored: exit 2 with one line naming it, and
// nothing run or listed.
func TestStrayArgumentExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-exp", "fig1", "fig5"},
		{"-list", "fig1"},
	} {
		out, errs, code := runCmd(t, args...)
		want := fmt.Sprintf("platinum-bench: unexpected argument %q\n", args[len(args)-1])
		if code != 2 || errs != want || out != "" {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2, stderr %q, no stdout",
				args, code, errs, out, want)
		}
	}
}

// TestBadFlagsExitTwo checks that a flag value that cannot describe a
// run is rejected rather than replaced: exit 2 with one
// "platinum-bench:" line, and nothing run or listed.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-j", "0"},
		{"-j", "-3"},
		{"-quick", "-exp", "fig1", "-j", "0"},
		{"-list", "-j", "-1"},
	} {
		out, errs, code := runCmd(t, args...)
		lines := strings.Split(strings.TrimSuffix(errs, "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "platinum-bench: ") || out != "" {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2, one platinum-bench: line, no stdout",
				args, code, errs, out)
		}
	}
}

// TestOutputIdenticalAcrossJ pins the determinism contract of -j:
// independent runs execute concurrently, yet the tables are
// byte-identical at any setting.
func TestOutputIdenticalAcrossJ(t *testing.T) {
	out1, errs, code := runCmd(t, "-quick", "-exp", "fig1", "-j", "1", "-json")
	if code != 0 {
		t.Fatalf("-j 1 exit code %d: %s", code, errs)
	}
	out8, errs, code := runCmd(t, "-quick", "-exp", "fig1", "-j", "8", "-json")
	if code != 0 {
		t.Fatalf("-j 8 exit code %d: %s", code, errs)
	}
	// wall_seconds is the one intentionally nondeterministic field.
	strip := func(s string) string {
		var doc map[string]any
		if err := json.Unmarshal([]byte(s), &doc); err != nil {
			t.Fatalf("-json output invalid: %v", err)
		}
		delete(doc, "wall_seconds")
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if strip(out1) != strip(out8) {
		t.Errorf("-j 1 and -j 8 tables differ:\n%s\nvs:\n%s", out1, out8)
	}
}
