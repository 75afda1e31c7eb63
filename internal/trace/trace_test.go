package trace

import (
	"strings"
	"testing"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

func ev(t sim.Time, k core.EventKind, proc int, cp int64) core.Event {
	return core.Event{Time: t, Kind: k, Proc: proc, Cpage: cp}
}

func TestSummarize(t *testing.T) {
	events := []core.Event{
		ev(0, core.EvReadFault, 0, 1),
		ev(1, core.EvReplication, 0, 1),
		ev(2, core.EvReadFault, 1, 2),
	}
	s := Summarize(events, 7)
	if s.Total != 3 || s.Dropped != 7 {
		t.Fatalf("summary %+v", s)
	}
	if s.ByKind[core.EvReadFault] != 2 || s.ByKind[core.EvReplication] != 1 {
		t.Fatalf("counts %v", s.ByKind)
	}
	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "read-fault") {
		t.Error("summary output missing kinds")
	}
}

func TestByPageOrdersByFaults(t *testing.T) {
	events := []core.Event{
		ev(0, core.EvReadFault, 0, 5),
		ev(1, core.EvReadFault, 1, 9),
		ev(2, core.EvWriteFault, 2, 9),
		ev(3, core.EvMigration, 2, 9),
	}
	pages := ByPage(events)
	if len(pages) != 2 || pages[0].Cpage != 9 || pages[0].Faults != 2 || pages[0].Moves != 1 {
		t.Fatalf("pages %+v", pages)
	}
}

func TestFreezeCycles(t *testing.T) {
	events := []core.Event{
		ev(0, core.EvFreeze, -1, 1),
		ev(1, core.EvThaw, 0, 1),
		ev(2, core.EvFreeze, -1, 1),
		ev(3, core.EvThaw, 0, 1),
		ev(4, core.EvFreeze, -1, 1), // open cycle, not counted
	}
	pages := ByPage(events)
	if pages[0].FreezeCycles != 2 {
		t.Fatalf("freeze cycles = %d, want 2", pages[0].FreezeCycles)
	}
}

func TestPingPongDetection(t *testing.T) {
	// Alternating migrations between procs 0 and 1: one ping-pong run.
	events := []core.Event{
		ev(0, core.EvMigration, 0, 3),
		ev(1, core.EvMigration, 1, 3),
		ev(2, core.EvMigration, 0, 3),
		ev(3, core.EvMigration, 1, 3),
	}
	if got := ByPage(events)[0].PingPongRuns; got != 1 {
		t.Fatalf("ping-pong runs = %d, want 1", got)
	}
	// Repeated moves by the same proc break the run.
	events = []core.Event{
		ev(0, core.EvMigration, 0, 3),
		ev(1, core.EvMigration, 0, 3),
		ev(2, core.EvMigration, 0, 3),
	}
	if got := ByPage(events)[0].PingPongRuns; got != 0 {
		t.Fatalf("same-proc moves counted as ping-pong: %d", got)
	}
	// Replication fan-out is not ping-pong.
	events = []core.Event{
		ev(0, core.EvReplication, 0, 3),
		ev(1, core.EvReplication, 1, 3),
		ev(2, core.EvReplication, 2, 3),
		ev(3, core.EvReplication, 3, 3),
	}
	if got := ByPage(events)[0].PingPongRuns; got != 0 {
		t.Fatalf("replication fan-out counted as ping-pong: %d", got)
	}
	// A freeze in the middle splits the run below threshold.
	events = []core.Event{
		ev(0, core.EvMigration, 0, 3),
		ev(1, core.EvMigration, 1, 3),
		ev(2, core.EvFreeze, -1, 3),
		ev(3, core.EvMigration, 0, 3),
		ev(4, core.EvMigration, 1, 3),
	}
	if got := ByPage(events)[0].PingPongRuns; got != 0 {
		t.Fatalf("split runs counted: %d", got)
	}
}

// TestEndToEndPingPongThenFreeze verifies the analyzer on a real kernel
// run: two writers ping-pong a page until the policy freezes it; the
// trace must show a ping-pong run followed by a freeze.
func TestEndToEndPingPongThenFreeze(t *testing.T) {
	cfg := kernel.DefaultConfig()
	k, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.EnableTrace(10000)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("pp", 1, core.Read|core.Write)
	ev0, _ := sp.AllocWords("ev", 1, core.Read|core.Write)
	// Strict alternation between two writers, spaced beyond T1 so each
	// write migrates (ping-pong), then a burst within T1 to freeze.
	k.Spawn("a", 0, sp, func(th *kernel.Thread) {
		for i := 0; i < 3; i++ {
			th.WaitAtLeast(ev0, uint32(2*i))
			th.Write(va, uint32(i))
			th.Sim().Advance(3 * core.DefaultT1)
			th.AtomicAdd(ev0, 1)
		}
		// Burst phase: reclaim the page from b (b owns it after its
		// last migration), recording a fresh invalidation...
		th.WaitAtLeast(ev0, 6)
		th.Write(va, 100)
		th.AtomicAdd(ev0, 1) // 7th add releases b's burst write
	})
	k.Spawn("b", 1, sp, func(th *kernel.Thread) {
		for i := 0; i < 3; i++ {
			th.WaitAtLeast(ev0, uint32(2*i+1))
			th.Write(va, uint32(i+50))
			th.Sim().Advance(3 * core.DefaultT1)
			th.AtomicAdd(ev0, 1)
		}
		// ...and b writes right back within T1: the policy freezes.
		th.WaitAtLeast(ev0, 7)
		th.Sim().Advance(time500us)
		th.Write(va, 101)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	events, _ := k.Trace()
	obj, ok := k.Manager().LookupObject("pp")
	if !ok {
		t.Fatal("pp object missing")
	}
	ppID := obj.Cpage(0).ID()
	var hist *PageHistory
	for _, h := range ByPage(events) {
		if h.Cpage == ppID {
			hist = h
			break
		}
	}
	if hist == nil {
		t.Fatal("no events recorded for the ping-pong page")
	}
	if hist.PingPongRuns == 0 {
		t.Error("analyzer found no ping-pong run on the ping-pong page")
	}
	froze := false
	for _, e := range hist.Events {
		if e.Kind == core.EvFreeze {
			froze = true
		}
	}
	if !froze {
		t.Error("the final interference burst did not freeze the page")
	}
}

const time500us = 500 * sim.Microsecond

func TestNodeBuckets(t *testing.T) {
	events := []core.Event{
		ev(100, core.EvReadFault, 0, 1),
		ev(900, core.EvReplication, 0, 1),
		ev(1100, core.EvWriteFault, 1, 1),
		ev(1200, core.EvInvalidation, 0, 1),
		ev(1300, core.EvFreeze, -1, 1),                         // no processor: excluded
		ev(2100, core.EventKind(len(core.EventKinds())), 0, 1), // unknown kind: excluded
	}
	nb := NodeBuckets(events, 1000)
	if len(nb) != 3 {
		t.Fatalf("want 3 cells, got %d: %+v", len(nb), nb)
	}
	for i, want := range []int{2, 1, 1} {
		if len(nb[i].ByKind) != len(core.EventKinds()) {
			t.Fatalf("cell %d counts %d kinds, want %d", i, len(nb[i].ByKind), len(core.EventKinds()))
		}
		total := 0
		for _, c := range nb[i].ByKind {
			total += c
		}
		if total != want {
			t.Errorf("cell %d holds %d events, want %d: %+v", i, total, want, nb[i])
		}
	}
	// Ordered by start then node.
	if nb[0].Start != 0 || nb[0].Node != 0 || nb[0].ByKind[core.EvReadFault] != 1 {
		t.Errorf("cell 0 wrong: %+v", nb[0])
	}
	if nb[1].Start != 1000 || nb[1].Node != 0 || nb[1].ByKind[core.EvInvalidation] != 1 {
		t.Errorf("cell 1 wrong: %+v", nb[1])
	}
	if nb[2].Start != 1000 || nb[2].Node != 1 || nb[2].ByKind[core.EvWriteFault] != 1 {
		t.Errorf("cell 2 wrong: %+v", nb[2])
	}
	if NodeBuckets(events, 0) != nil || NodeBuckets(nil, 1000) != nil {
		t.Error("degenerate inputs must return nil")
	}
}

func TestTopCostRanksByFaultTime(t *testing.T) {
	r := core.Report{Pages: []core.PageReport{
		{ID: 1, CpageStats: core.CpageStats{ReadFaults: 100, FaultTime: 10}},
		{ID: 2, CpageStats: core.CpageStats{ReadFaults: 3, FaultTime: 500}}, // few but slow faults
		{ID: 3, CpageStats: core.CpageStats{ReadFaults: 50, FaultTime: 10}}, // ties with 1 on time, more faults
	}}
	top := TopCost(r, 10)
	if len(top) != 3 || top[0].ID != 2 || top[1].ID != 1 || top[2].ID != 3 {
		t.Fatalf("ranking wrong: %+v", top)
	}
	if got := TopCost(r, 1); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("k truncation wrong: %+v", got)
	}
	// The input report is not reordered.
	if r.Pages[0].ID != 1 {
		t.Error("TopCost mutated its input")
	}
}
