package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCmd drives the CLI with args and returns stdout, stderr, and the
// exit code.
func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestValidateApps runs the validator — nesting plus exact Account
// reconciliation — over each supported application.
func TestValidateApps(t *testing.T) {
	for _, app := range []string{"gauss", "mergesort", "backprop"} {
		out, errs, code := runCmd(t, "-app", app, "-n", "32", "-procs", "4", "-validate")
		if code != 0 {
			t.Fatalf("%s: exit code %d: %s", app, code, errs)
		}
		if !strings.HasPrefix(out, "ok:") {
			t.Errorf("%s: unexpected validator output:\n%s", app, out)
		}
	}
}

func TestChromeExportParses(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "trace.json")
	_, errs, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-o", tr)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errs)
	}
	raw, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v", err)
	}
	var complete, meta, async int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
		case "M":
			meta++
		case "b", "e":
			async++
		}
	}
	if complete == 0 || meta == 0 || async == 0 {
		t.Errorf("export missing event phases: X=%d M=%d b/e=%d", complete, meta, async)
	}
}

func TestTextDump(t *testing.T) {
	out, errs, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-text")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errs)
	}
	for _, want := range []string{"fault", "dir-lookup", "block-transfer", "page="} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%.2000s", want, out)
		}
	}
}

func TestUnknownAppFails(t *testing.T) {
	_, _, code := runCmd(t, "-app", "nosuch")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

// TestCountersGolden pins the counter-track export byte-for-byte: the
// run is deterministic, so any diff means the simulated timing, the
// series bucketing, or the export format changed.
func TestCountersGolden(t *testing.T) {
	capture := func() []byte {
		t.Helper()
		tr := filepath.Join(t.TempDir(), "trace.json")
		_, errs, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2",
			"-counters", "1ms", "-o", tr)
		if code != 0 {
			t.Fatalf("exit code %d: %s", code, errs)
		}
		raw, err := os.ReadFile(tr)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	raw := capture()

	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" {
			names[ev.Name]++
			if _, ok := ev.Args["value"]; !ok {
				t.Fatalf("counter event %q has no value arg", ev.Name)
			}
		}
	}
	for _, want := range []string{"faults/window", "remote-frac", "fault-frac"} {
		if names[want] == 0 {
			t.Errorf("no counter events for track %q (have %v)", want, names)
		}
	}

	golden := filepath.Join("testdata", "gauss_counters.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("counter export drifted from %s", golden)
	}

	// Determinism: a second identical run must reproduce the export
	// byte-for-byte.
	if again := capture(); !bytes.Equal(raw, again) {
		t.Error("two identical -counters runs produced different exports")
	}
}

// TestBadFlagsExitTwo checks every flag value that cannot describe a
// trace: exit 2 with one "platinum-trace:" line on stderr, before
// anything runs, so nothing is exported.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-counters", "-1ms"},
	} {
		out, errs, code := runCmd(t, args...)
		lines := strings.Split(strings.TrimSuffix(errs, "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "platinum-trace: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one platinum-trace: line", args, code, errs)
		}
		if out != "" {
			t.Errorf("%v: exported to stdout:\n%s", args, out)
		}
	}
}
