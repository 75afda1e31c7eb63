package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"platinum/internal/sim"
)

func TestKindStringsExhaustive(t *testing.T) {
	seen := make(map[string]Kind)
	for _, k := range Kinds() {
		s := k.String()
		if s == "span(?)" {
			t.Fatalf("kind %d has no name in kindNames", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	if len(seen) != int(numKinds) {
		t.Fatalf("Kinds() returned %d kinds, want %d", len(seen), numKinds)
	}
	if Kind(numKinds).String() != "span(?)" {
		t.Fatalf("out-of-range kind should stringify as span(?)")
	}
}

func TestRecorderFlightRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Kind: KindFault, Start: sim.Time(i), End: sim.Time(i + 1), Page: int64(i), Proc: -1})
	}
	fl := r.Flight()
	if len(fl) != 4 {
		t.Fatalf("flight ring holds %d spans, want 4", len(fl))
	}
	for i, sp := range fl {
		if want := int64(6 + i); sp.Page != want {
			t.Fatalf("flight[%d].Page = %d, want %d (oldest-first)", i, sp.Page, want)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if len(r.Spans()) != 0 {
		t.Fatalf("retained spans without EnableRetain: %d", len(r.Spans()))
	}
}

func TestRecorderRetain(t *testing.T) {
	r := NewRecorder(0)
	r.EnableRetain(3)
	for i := 0; i < 5; i++ {
		r.Record(Span{Start: sim.Time(10 - i)})
	}
	if got := len(r.Spans()); got != 3 {
		t.Fatalf("retained %d spans, want 3 (capacity)", got)
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	sp := r.Spans()
	for i := 1; i < len(sp); i++ {
		if sp[i].Start < sp[i-1].Start {
			t.Fatalf("Spans() not sorted by start: %v after %v", sp[i].Start, sp[i-1].Start)
		}
	}
	r.DisableRetain()
	if r.Retaining() || len(r.Spans()) != 0 {
		t.Fatalf("DisableRetain left retained state behind")
	}
}

func TestAllocParenting(t *testing.T) {
	r := NewRecorder(0)
	parent := r.Alloc()
	child := r.Record(Span{Parent: parent, Kind: KindShootTarget})
	root := r.Record(Span{ID: parent, Kind: KindShootdown})
	if root != parent {
		t.Fatalf("Record changed pre-allocated ID %d to %d", parent, root)
	}
	if child == parent {
		t.Fatalf("child reused parent ID")
	}
}

func TestReconcile(t *testing.T) {
	spans := []Span{
		{Kind: KindFault, Cause: sim.CauseFault, Self: 100},
		{Kind: KindShootdown, Cause: sim.CauseShootdown, Self: 40},
		{Kind: KindShootTarget, Cause: sim.CauseShootdown, Self: 60},
		{Kind: KindBlockTransfer, Cause: sim.CauseBlockTransfer, Self: 30},
		{Kind: KindSlice, Cause: sim.CauseUnattributed, Self: 0},
	}
	var acct sim.Account
	acct[sim.CauseFault] = 100
	acct[sim.CauseShootdown] = 100
	acct[sim.CauseBlockTransfer] = 30
	acct[sim.CauseCompute] = 999 // uncovered cause: ignored
	if err := Reconcile(spans, acct); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	acct[sim.CauseShootdown]++
	err := Reconcile(spans, acct)
	if err == nil || !strings.Contains(err.Error(), "shootdown") {
		t.Fatalf("Reconcile missed a 1ns shootdown discrepancy: %v", err)
	}
}

func TestValidateNesting(t *testing.T) {
	ok := []Span{
		{ID: 1, Kind: KindSlice, Track: 7, Start: 0, End: 100, Proc: 0},
		{ID: 2, Parent: 1, Kind: KindFault, Track: 7, Start: 10, End: 50},
		{ID: 3, Parent: 2, Kind: KindShootdown, Track: 7, Start: 20, End: 30},
		{ID: 4, Kind: KindFault, Track: 7, Start: 50, End: 70}, // touching is disjoint
		{ID: 5, Kind: KindFault, Track: 9, Start: 15, End: 60}, // other track
		{ID: 6, Kind: KindFault, Track: 7, Start: 80, End: 80}, // zero duration
	}
	if err := ValidateNesting(ok); err != nil {
		t.Fatalf("valid nesting rejected: %v", err)
	}

	overlap := []Span{
		{ID: 1, Kind: KindFault, Track: 1, Start: 0, End: 50},
		{ID: 2, Kind: KindFault, Track: 1, Start: 40, End: 60},
	}
	if err := ValidateNesting(overlap); err == nil {
		t.Fatalf("partial overlap on one track not detected")
	}

	escape := []Span{
		{ID: 1, Kind: KindFault, Track: 1, Start: 0, End: 50},
		{ID: 2, Parent: 1, Kind: KindShootdown, Track: 1, Start: 40, End: 50},
		{ID: 3, Parent: 9, Kind: KindAck, Track: 1, Start: 41, End: 42}, // unknown parent: fine
	}
	if err := ValidateNesting(escape); err != nil {
		t.Fatalf("unknown parent should be tolerated: %v", err)
	}
	escape[1].End = 60
	if err := ValidateNesting(escape); err == nil {
		t.Fatalf("child escaping parent not detected")
	}
}

func TestWriteChromeParses(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: KindSlice, Track: 3, Proc: 0, Page: -1, Start: 0, End: 1000, Note: "worker-0"},
		{ID: 2, Parent: 1, Kind: KindFault, Track: 3, Proc: 0, Page: 5, Start: 100, End: 400,
			Cause: sim.CauseFault, Self: 250, State: "present1", DirMask: 0b1, Note: "read-fault"},
		{ID: 3, Parent: 2, Kind: KindShootdown, Track: 3, Proc: 0, Page: 5, Start: 150, End: 250,
			Cause: sim.CauseShootdown, Self: 50},
		{ID: 4, Kind: KindThaw, Track: 8, Proc: 1, Page: 5, Start: 600, End: 700},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var complete, async, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur: %v", ev)
			}
		case "b", "e":
			async++
		case "M":
			meta++
		}
	}
	if complete != len(spans) {
		t.Fatalf("%d complete events, want %d", complete, len(spans))
	}
	if async != 4 { // fault + thaw, b+e each
		t.Fatalf("%d async page events, want 4", async)
	}
	if meta == 0 {
		t.Fatalf("no metadata (process/thread name) events")
	}
	// Timestamp of the fault span: 100 ns = 0.1 µs, exactly.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "fault" {
			found = true
			if ev["ts"] != 0.1 {
				t.Fatalf("fault ts = %v µs, want 0.1", ev["ts"])
			}
		}
	}
	if !found {
		t.Fatalf("fault span missing from export")
	}
}

func TestFormatDump(t *testing.T) {
	spans := []Span{
		{ID: 2, Parent: 1, Kind: KindShootdown, Track: 1, Start: 20, End: 40, Page: 3, Proc: 0,
			Cause: sim.CauseShootdown, Self: 20, State: "modified", DirMask: 0b10},
		{ID: 1, Kind: KindFault, Track: 1, Start: 10, End: 90, Page: 3, Proc: 0,
			Cause: sim.CauseFault, Self: 60, Note: "write-fault"},
	}
	var buf bytes.Buffer
	if _, err := Format(&buf, spans); err != nil {
		t.Fatalf("Format: %v", err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "fault (write-fault)") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  shootdown") {
		t.Fatalf("child not indented under parent: %q", lines[1])
	}
	if !strings.Contains(lines[1], "state=modified dirMask=10") {
		t.Fatalf("state/dirMask annotation missing: %q", lines[1])
	}
}
