package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"platinum/internal/core"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedAccount builds a deterministic synthetic account.
func fixedAccount(scale sim.Time) sim.Account {
	var a sim.Account
	a[sim.CauseCompute] = 100 * scale
	a[sim.CauseLocalAccess] = 40 * scale
	a[sim.CauseRemoteAccess] = 25 * scale
	a[sim.CauseBlockTransfer] = 15 * scale
	a[sim.CauseFault] = 10 * scale
	a[sim.CauseShootdown] = 5 * scale
	a[sim.CauseQueue] = 3 * scale
	a[sim.CauseSync] = 1 * scale
	a[sim.CauseKernel] = 1 * scale
	return a
}

func fixedReport() Report {
	cr := core.Report{
		Policy:     "platinum(t1=10.000ms)",
		Shootdowns: 42,
		Pages: []core.PageReport{
			{
				ID: 7, Label: "size+lock", State: core.Modified, Frozen: true,
				Copies: 1, CpageStats: core.CpageStats{
					ReadFaults: 120, WriteFaults: 30, Replications: 4,
					Migrations: 2, Invalidations: 6, RemoteMaps: 90, Freezes: 1,
					HandlerWait: 2 * sim.Millisecond, FaultTime: 40 * sim.Millisecond,
				},
			},
			{
				ID: 3, Label: "gauss-matrix[3]", State: core.PresentPlus,
				Copies: 8, CpageStats: core.CpageStats{
					ReadFaults: 7, Replications: 7,
					FaultTime: 11 * sim.Millisecond,
				},
			},
		},
	}
	nodes := []sim.Account{fixedAccount(1000), fixedAccount(2000)}
	return BuildReport("gauss", 2, 123456789, nodes, cr)
}

// The v1 JSON encoding is pinned byte-for-byte: a diff here means the
// schema changed and consumers will break. Additive fields require
// regenerating the golden (go test ./internal/metrics -update);
// renames or removals require a SchemaVersion bump.
func TestReportGoldenV1(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fixedReport()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_v1.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestReportKeysDocumented checks that EXPERIMENTS.md documents every
// key a report can carry: it writes the hostile version 2 report, whose
// every field and cause is non-zero, and fails on any object key that
// does not appear backticked there. So a new cause's <name>_ns key is
// documented before it ships. The cause and count names keying a
// series window's time_ns and counts objects are exempt.
func TestReportKeysDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, hostileReport()); err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	var walk func(any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				keys[k] = true
				if k != "time_ns" && k != "counts" {
					walk(x)
				}
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		}
	}
	walk(v)
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		if !bytes.Contains(doc, []byte("`"+k+"`")) {
			t.Errorf("report key %q is not documented (backticked) in EXPERIMENTS.md", k)
		}
	}
}

func TestTimelineGoldenV1(t *testing.T) {
	events := []core.Event{
		{Time: 0, Kind: core.EvReadFault, Proc: 0, Cpage: 1},
		{Time: 500, Kind: core.EvReplication, Proc: 0, Cpage: 1},
		{Time: 1500, Kind: core.EvWriteFault, Proc: 1, Cpage: 1},
		{Time: 1600, Kind: core.EvInvalidation, Proc: 0, Cpage: 1},
		{Time: 1700, Kind: core.EvFreeze, Proc: -1, Cpage: 1}, // no proc: dropped
	}
	var buf bytes.Buffer
	if err := WriteTimelineJSONL(&buf, events, 1000); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "timeline_v1.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline JSONL drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestCheckConservation(t *testing.T) {
	good := []sim.Account{fixedAccount(1), {}}
	if err := CheckConservation(good); err != nil {
		t.Fatalf("clean accounts rejected: %v", err)
	}
	var leak sim.Account
	leak[sim.CauseUnattributed] = 5
	if err := CheckConservation([]sim.Account{leak}); err == nil {
		t.Fatal("unattributed time not flagged")
	}
	var over sim.Account
	over[sim.CauseFault] = -3
	if err := CheckConservation([]sim.Account{over}); err == nil {
		t.Fatal("negative slot not flagged")
	}
}

// Pages in a built report come out most-expensive-first.
func TestReportPagesRankedByCost(t *testing.T) {
	r := fixedReport()
	if len(r.Pages) != 2 {
		t.Fatalf("want 2 pages, got %d", len(r.Pages))
	}
	if r.Pages[0].ID != 7 || r.Pages[1].ID != 3 {
		t.Fatalf("pages not ranked by fault time: %v, %v", r.Pages[0].ID, r.Pages[1].ID)
	}
	if r.Pages[0].FaultTime <= r.Pages[1].FaultTime {
		t.Fatalf("ranking violated: %v <= %v", r.Pages[0].FaultTime, r.Pages[1].FaultTime)
	}
}

// TestBuildSeriesSpilledOnce drives the two series through a small
// ring until both evict, the cause series one window further than the
// count series (as a charge can land after the last span starts). The
// evicted windows are counted once, and the listing starts where both
// series still hold their columns.
func TestBuildSeriesSpilledOnce(t *testing.T) {
	const width, ringWindows = 10, 4
	cause := timeseries.New(width, int(sim.NumCauses), ringWindows)
	counts := timeseries.New(width, span.NumCounts, ringWindows)
	for w := int64(0); w < 10; w++ {
		cause.Add(w*width, int(sim.CauseFault), 5)
		if w < 9 {
			counts.Add(w*width, span.CountFault, 1)
		}
	}
	if cause.SpilledWindows() != 6 || counts.SpilledWindows() != 5 {
		t.Fatalf("spilled %d and %d windows, want 6 and 5", cause.SpilledWindows(), counts.SpilledWindows())
	}
	s := BuildSeries(cause, counts)
	if s.SpilledWindows() != 6 {
		t.Errorf("SpilledWindows = %d, want 6", s.SpilledWindows())
	}
	var starts []int64
	for w, start := range s.Windows() {
		starts = append(starts, start)
		if w < 9 && (s.Time(w, sim.CauseFault) != 5 || s.Count(w, span.CountFault) != 1) {
			t.Errorf("window at %d lists fault %d and faults %d, want 5 and 1",
				start, s.Time(w, sim.CauseFault), s.Count(w, span.CountFault))
		}
	}
	if want := []int64{6 * width, 7 * width, 8 * width, 9 * width}; !slices.Equal(starts, want) {
		t.Fatalf("listed windows from %v, want %v", starts, want)
	}
}
