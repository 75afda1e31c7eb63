package kernel

import (
	"testing"

	"platinum/internal/core"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// TestMigrateSliceSpans checks the scheduling-slice instrumentation: a
// thread that migrates produces one slice span per processor residency,
// the slices carry the right processor tags, the migration gap between
// them holds the kernel-stack block transfer, and the whole recording
// still nests and reconciles exactly with the Account totals.
func TestMigrateSliceSpans(t *testing.T) {
	k := boot(t, nil)
	k.EnableSpans(0)
	sp := k.NewSpace()
	va, err := sp.AllocWords("data", 32, core.Read|core.Write)
	if err != nil {
		t.Fatalf("AllocWords: %v", err)
	}
	hops := []int{0, 3, 1}
	k.Spawn("hopper", hops[0], sp, func(th *Thread) {
		th.Write(va, 1)
		for _, p := range hops[1:] {
			th.Migrate(p)
			th.Write(va, th.Read(va)+1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	spans := k.Spans().Spans()
	if err := span.ValidateNesting(spans); err != nil {
		t.Fatalf("nesting: %v", err)
	}
	if err := span.Reconcile(spans, k.TotalAccount()); err != nil {
		t.Fatalf("reconcile: %v", err)
	}

	var slices, stacks []span.Span
	for _, s := range spans {
		switch {
		case s.Kind == span.KindSlice && s.Note == "hopper":
			slices = append(slices, s)
		case s.Kind == span.KindBlockTransfer && s.Self > 0 && s.Page < 0:
			stacks = append(stacks, s)
		}
	}
	if len(slices) != len(hops) {
		t.Fatalf("got %d hopper slices, want %d: %+v", len(slices), len(hops), slices)
	}
	if len(stacks) != len(hops)-1 {
		t.Fatalf("got %d kernel-stack transfers, want %d", len(stacks), len(hops)-1)
	}
	var prevEnd sim.Time
	for i, s := range slices {
		if s.Proc != hops[i] {
			t.Errorf("slice %d on proc %d, want %d", i, s.Proc, hops[i])
		}
		if s.Start < prevEnd {
			t.Errorf("slice %d starts at %d before previous slice ended at %d", i, s.Start, prevEnd)
		}
		if i > 0 {
			// The migration gap holds the stack transfer.
			x := stacks[i-1]
			if x.Start < prevEnd || x.End > s.Start {
				t.Errorf("stack transfer [%d,%d] outside migration gap [%d,%d]",
					x.Start, x.End, prevEnd, s.Start)
			}
		}
		prevEnd = s.End
	}
}

// TestEnableHistogramsRetainsSpans checks that EnableHistograms turns
// on the span retention the op histograms derive from, and that a
// capacity set by an earlier EnableSpans survives it.
func TestEnableHistogramsRetainsSpans(t *testing.T) {
	run := func(enable func(k *Kernel)) *span.Recorder {
		k := boot(t, nil)
		enable(k)
		sp := k.NewSpace()
		va, err := sp.AllocWords("data", 32, core.Read|core.Write)
		if err != nil {
			t.Fatalf("AllocWords: %v", err)
		}
		for p := 0; p < 3; p++ {
			k.Spawn("writer", p, sp, func(th *Thread) { th.Write(va, uint32(p)) })
		}
		if err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return k.Spans()
	}

	rec := run(func(k *Kernel) { k.EnableHistograms() })
	var faults int64
	for _, s := range rec.Spans() {
		if s.Kind == span.KindFault {
			faults++
		}
	}
	if h := rec.OpHist(span.KindFault); faults == 0 || h == nil || h.Count() != faults {
		t.Errorf("fault op histogram %v over %d retained fault spans", h, faults)
	}

	rec = run(func(k *Kernel) { k.EnableSpans(2); k.EnableHistograms() })
	if got := len(rec.Spans()); got != 2 || rec.Dropped() == 0 {
		t.Errorf("EnableSpans(2) then EnableHistograms retained %d spans, dropped %d; want 2 and some", got, rec.Dropped())
	}
}
