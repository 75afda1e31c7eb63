package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platinum/internal/apps"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCmd drives the CLI with args and returns stdout and the exit code.
func runCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	if errb.Len() > 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return out.String(), code
}

// checkGolden compares got against the named golden file, rewriting it
// under -update (the same convention as internal/metrics).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// The simulation is deterministic, so every CLI path is pinned
// byte-for-byte against a golden: a diff means either the simulated
// run changed (timing, protocol behaviour) or the output format did.

func TestReportTextGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	checkGolden(t, "gauss_report.golden.txt", []byte(out))
}

func TestReportJSONGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	checkGolden(t, "gauss_report.golden.json", []byte(out))
}

func TestHistTextGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4",
		"-hist", "-series", "1ms")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	checkGolden(t, "gauss_hist.golden.txt", []byte(out))
}

func TestHistJSONGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4",
		"-hist", "-series", "1ms", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var doc struct {
		SchemaVersion int             `json:"schema_version"`
		Histograms    json.RawMessage `json:"histograms"`
		Series        json.RawMessage `json:"series"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.SchemaVersion != 2 {
		t.Errorf("schema_version = %d, want 2 with telemetry attached", doc.SchemaVersion)
	}
	if len(doc.Histograms) == 0 || len(doc.Series) == 0 {
		t.Error("telemetry sections missing from -hist -series -json output")
	}
	checkGolden(t, "gauss_hist.golden.json", []byte(out))
}

// TestZeroConfigOmitsTelemetry pins the omitempty contract: without
// -hist/-series the JSON document carries neither section and keeps
// schema version 1.
func TestZeroConfigOmitsTelemetry(t *testing.T) {
	out, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2", "-top", "4", "-json")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if strings.Contains(out, "histograms") || strings.Contains(out, "\"series\"") {
		t.Error("telemetry sections present in zero-config output")
	}
	var doc struct {
		SchemaVersion int `json:"schema_version"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != 1 {
		t.Errorf("schema_version = %d, want 1 without telemetry", doc.SchemaVersion)
	}
}

func TestTimelineGolden(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "timeline.jsonl")
	_, code := runCmd(t, "-app", "gauss", "-n", "16", "-procs", "2",
		"-trace", "2000", "-timeline", tl)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	got, err := os.ReadFile(tl)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "gauss_timeline.golden.jsonl", got)
}

// TestTimelineDropWarns checks that a -timeline written from a trace
// that hit its -trace cap says so on stderr in both output modes, and
// that a complete one prints nothing there.
func TestTimelineDropWarns(t *testing.T) {
	tl := filepath.Join(t.TempDir(), "timeline.jsonl")
	const warning = "platinum-report: warning: 53 protocol events dropped (-trace cap); the timeline is partial\n"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "10", "-json"}, warning},
		{[]string{"-trace", "10"}, warning},
		{[]string{"-trace", "2000", "-json"}, ""},
	} {
		args := append([]string{"-app", "gauss", "-n", "16", "-procs", "2", "-timeline", tl}, c.args...)
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, errb.String())
		}
		if errb.String() != c.want {
			t.Errorf("%v: stderr %q, want %q", args, errb.String(), c.want)
		}
	}
}

func TestSpansGolden(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "spans.json")
	out, code := runCmd(t, "-app", "gauss", "-n", "8", "-procs", "2", "-spans", tr)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "spans:") {
		t.Errorf("stdout does not mention the span export:\n%s", out)
	}
	got, err := os.ReadFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("-spans output is not valid Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-spans wrote no trace events")
	}
	checkGolden(t, "gauss_spans.golden.json", got)
}

// chromeDoc is the part of a Chrome trace-event document the tests read.
type chromeDoc struct {
	TraceEvents []struct {
		Ph   string         `json:"ph"`
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// spansFile runs the CLI with args plus "-spans FILE" and returns the
// exported file.
func spansFile(t *testing.T, args ...string) []byte {
	t.Helper()
	f := filepath.Join(t.TempDir(), "spans")
	if _, code := runCmd(t, append(args, "-spans", f)...); code != 0 {
		t.Fatalf("%v: exit code %d", args, code)
	}
	got, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestValidateApps exports the spans of each application: the export
// succeeds only if they nest and reconcile exactly with the accounts,
// and the report says so.
func TestValidateApps(t *testing.T) {
	for _, run := range []struct{ app, n string }{
		{"gauss", "32"}, {"mergesort", "32"}, {"backprop", "32"},
		{"gauss", "48"}, {"mergesort", "8192"},
	} {
		f := filepath.Join(t.TempDir(), "spans.json")
		out, code := runCmd(t, "-app", run.app, "-n", run.n, "-procs", "4", "-spans", f)
		if code != 0 {
			t.Fatalf("%s -n %s: exit code %d", run.app, run.n, code)
		}
		if !strings.Contains(out, "nest and reconcile exactly") {
			t.Errorf("%s -n %s: report does not confirm the validation:\n%s", run.app, run.n, out)
		}
	}
}

func TestChromeExportParses(t *testing.T) {
	var doc chromeDoc
	if err := json.Unmarshal(spansFile(t, "-app", "gauss", "-n", "16", "-procs", "2"), &doc); err != nil {
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
	out := string(spansFile(t, "-app", "gauss", "-n", "16", "-procs", "2", "-text"))
	for _, want := range []string{"fault", "dir-lookup", "block-transfer", "page="} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%.2000s", want, out)
		}
	}
}

// TestCountersGolden pins the counter tracks that -series adds to the
// -spans export byte for byte, and checks that a second run
// reproduces them.
func TestCountersGolden(t *testing.T) {
	args := []string{"-app", "gauss", "-n", "16", "-procs", "2", "-series", "1ms"}
	raw := spansFile(t, args...)
	var doc chromeDoc
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
	checkGolden(t, "gauss_counters.golden.json", raw)
	if again := spansFile(t, args...); !bytes.Equal(raw, again) {
		t.Error("two identical -series -spans runs produced different exports")
	}
}

// TestPoolingOutputIdentical is the end-to-end pooled-vs-reference
// gate: for gauss and mergesort, every output mode (-json report,
// -trace timeline, -spans Chrome trace) must be byte-identical between
// the reference mode (pooling off, fresh kernel each run) and the
// pooled mode — including a second pooled run, which exercises a
// reused, reset platform instead of a fresh boot.
func TestPoolingOutputIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, app := range []string{"gauss", "mergesort"} {
		// Small sizes keep the three-runs-per-mode matrix fast.
		base := []string{"-app", app, "-n", "16", "-procs", "2"}
		if app == "mergesort" {
			base = []string{"-app", app, "-n", "256", "-procs", "2"}
		}
		modes := []struct {
			name string
			args []string // appended to base; FILE is replaced per mode
			file string   // side-channel output to compare, "" for stdout only
		}{
			{"json", []string{"-json"}, ""},
			{"timeline", []string{"-trace", "2000", "-timeline", "FILE"}, filepath.Join(dir, app+"_timeline.jsonl")},
			{"spans", []string{"-spans", "FILE"}, filepath.Join(dir, app+"_spans.json")},
			{"hist", []string{"-hist", "-series", "1ms", "-json"}, ""},
		}
		for _, m := range modes {
			args := append(append([]string{}, base...), m.args...)
			for i, a := range args {
				if a == "FILE" {
					args[i] = m.file
				}
			}
			// capture runs the CLI once and returns stdout plus the
			// side-channel file (same path every run, so stdout that
			// echoes it stays comparable).
			capture := func() string {
				t.Helper()
				out, code := runCmd(t, args...)
				if code != 0 {
					t.Fatalf("%s/%s: exit code %d", app, m.name, code)
				}
				if m.file != "" {
					got, err := os.ReadFile(m.file)
					if err != nil {
						t.Fatal(err)
					}
					out += "\n--file--\n" + string(got)
				}
				return out
			}
			prev := apps.SetPooling(false)
			ref := capture()
			apps.SetPooling(true)
			first := capture()  // cold pool: fresh boot, released after
			second := capture() // warm pool: reused, reset platform
			apps.SetPooling(prev)
			if first != ref {
				t.Errorf("%s/%s: pooled output differs from reference", app, m.name)
			}
			if second != ref {
				t.Errorf("%s/%s: reused-platform output differs from reference", app, m.name)
			}
		}
	}
}

// TestAnecdoteReportGolden pins the report of the kernel the anecdote
// boots for itself: the frozen size+lock page heads the page table.
func TestAnecdoteReportGolden(t *testing.T) {
	out, code := runCmd(t, "-app", "anecdote", "-procs", "6", "-top", "3")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	checkGolden(t, "anecdote_report.golden.txt", []byte(out))
}

// TestAnecdoteRecords runs the anecdote with every recording flag on:
// its spans nest and reconcile, and recording moves no simulated
// number, so the report still begins with the bytes of its golden.
func TestAnecdoteRecords(t *testing.T) {
	f := filepath.Join(t.TempDir(), "spans.json")
	out, code := runCmd(t, "-app", "anecdote", "-procs", "6", "-top", "3",
		"-trace", "4096", "-spans", f, "-hist", "-series", "1ms")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out, "nest and reconcile exactly") {
		t.Errorf("report does not confirm the span validation:\n%s", out)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "anecdote_report.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, string(want)) {
		t.Errorf("recorded report does not begin with anecdote_report.golden.txt:\n%s", out)
	}
}

func TestUnknownAppFails(t *testing.T) {
	_, code := runCmd(t, "-app", "nosuch")
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
}

// TestSpansUnknownAppFails checks that an unknown app fails a -spans
// run before the export file is created.
func TestSpansUnknownAppFails(t *testing.T) {
	f := filepath.Join(t.TempDir(), "spans.json")
	_, code := runCmd(t, "-app", "nosuch", "-spans", f)
	if code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if _, err := os.Stat(f); !os.IsNotExist(err) {
		t.Fatalf("spans file exists after a failed run (stat: %v)", err)
	}
}

// TestSpansBadFlagsExitTwo checks that a -spans run with a flag value
// the export cannot use exits 2 with one "platinum-report:" line,
// before anything runs or the export file is created.
func TestSpansBadFlagsExitTwo(t *testing.T) {
	f := filepath.Join(t.TempDir(), "spans.json")
	for _, args := range [][]string{
		{"-spans", f, "-series", "-1ms"},
	} {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		lines := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "platinum-report: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one platinum-report: line", args, code, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, out.String())
		}
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("%v: spans file exists after a rejected run (stat: %v)", args, err)
		}
	}
}

// TestBadFlagsExitTwo checks every flag value that cannot describe a
// report: exit 2 with one "platinum-report:" line on stderr, before
// anything runs, so nothing reaches stdout and no file is written.
func TestBadFlagsExitTwo(t *testing.T) {
	dir := t.TempDir()
	tl := filepath.Join(dir, "timeline.jsonl")
	for _, args := range [][]string{
		{"-top", "-1"},
		{"-trace", "-5"},
		{"-series", "-1ms"},
		{"-trace", "100", "-timeline", tl, "-bucket", "0"},
		{"-trace", "100", "-timeline", tl, "-bucket", "-1ms"},
		{"-timeline", tl},
		{"-n", "0"},
		{"-app", "gauss", "-n", "-5"},
		{"-app", "mergesort", "-n", "0"},
		{"-app", "backprop", "-n", "-1"},
		{"-text"},
		{"-n", "16", "-procs", "2", "mergesort"},
		{"-n", "16", "-procs", "2", "-trace", "100", "-timeline", tl, "extra"},
	} {
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		lines := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n")
		if code != 2 || len(lines) != 1 || !strings.HasPrefix(lines[0], "platinum-report: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one platinum-report: line", args, code, errb.String())
		}
		if out.Len() > 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, out.String())
		}
		if _, err := os.Stat(tl); !os.IsNotExist(err) {
			t.Fatalf("%v: timeline file exists after a rejected run (stat: %v)", args, err)
		}
	}
}
