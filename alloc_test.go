package platinum

// Alloc-regression gates for the pooled simulation core: the engine
// step (Advance, both the fast path and the fused handoff, and the
// Block/Unblock handoff), a whole Reset/Spawn/Run cycle, span
// Begin/End recording, and account charging must not allocate in
// steady state. These are the invariants the pooling/arena design
// bought; testing.AllocsPerRun pins them against the compiler's actual
// escape analysis so they cannot silently rot.
//
// The tests skip under -race: the detector instruments allocations of
// its own. CI runs them in the non-instrumented bench-smoke lane.

import (
	"testing"

	"platinum/internal/sim"
	"platinum/internal/span"
)

// measureInThread spawns a one-thread simulation and reports the
// allocations per call of step, measured from inside the thread's body
// after warm-up Advances.
func measureInThread(t *testing.T, step func(*sim.Thread)) float64 {
	t.Helper()
	var allocs float64
	e := sim.NewEngine()
	e.Spawn("meter", func(th *sim.Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(1) // warm the engine's pools
		}
		allocs = testing.AllocsPerRun(200, func() { step(th) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestAdvanceZeroAlloc pins the fast-path engine step (a lone thread's
// Advance never parks) at zero allocations.
func TestAdvanceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	if got := measureInThread(t, func(th *sim.Thread) { th.Advance(100) }); got != 0 {
		t.Errorf("Advance fast path allocates %v per op, want 0", got)
	}
}

// TestChargeZeroAlloc pins account charging (attribute + Advance, the
// per-cause bookkeeping on every simulated cost) at zero allocations.
func TestChargeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	if got := measureInThread(t, func(th *sim.Thread) { th.Charge(sim.CauseCompute, 100) }); got != 0 {
		t.Errorf("Charge allocates %v per op, want 0", got)
	}
}

// TestHandoffZeroAlloc pins the fused handoff step — two threads in
// lockstep, every Advance a switch through the engine loop to the
// peer — at zero allocations.
func TestHandoffZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	var allocs float64
	done := false
	e := sim.NewEngine()
	e.Spawn("meter", func(th *sim.Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(100) // warm-up handoffs
		}
		allocs = testing.AllocsPerRun(200, func() { th.Advance(100) })
		done = true
	})
	e.Spawn("peer", func(th *sim.Thread) {
		// done is written by the meter thread and read here without
		// host-level synchronization, which is safe: exactly one sim
		// thread runs at a time, and handoffs order the accesses.
		for !done {
			th.Advance(100)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("fused-handoff Advance allocates %v per op, want 0", allocs)
	}
}

// TestBlockUnblockZeroAlloc pins the blocking handoff: a waker that
// Advances, Unblocks a parked waiter, then runs AdvanceTo, Yield and
// Attribute, while the waiter loops on Block — at zero allocations.
func TestBlockUnblockZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	var allocs float64
	done := false
	e := sim.NewEngine()
	waiter := e.Spawn("waiter", func(th *sim.Thread) {
		// done is written by the waker and read here without host-level
		// synchronization, which is safe: exactly one sim thread runs at
		// a time, and Unblock orders the accesses.
		for !done {
			th.Block()
		}
	})
	e.Spawn("waker", func(th *sim.Thread) {
		step := func() {
			th.Advance(100)
			waiter.Unblock(th.Now())
			th.AdvanceTo(th.Now() + 50)
			th.Yield()
			th.Attribute(sim.CauseCompute, 50)
		}
		for i := 0; i < 100; i++ {
			step() // warm the ready heap
		}
		allocs = testing.AllocsPerRun(200, step)
		done = true
		waiter.Unblock(th.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Block/Unblock handoff allocates %v per op, want 0", allocs)
	}
}

// TestSpawnRunZeroAlloc pins a whole simulation on a reused engine —
// Reset, sixteen Spawns, Run through their handoffs to the end — at
// zero allocations once the engine's free lists and the idle worker
// pool are warm.
func TestSpawnRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	e := sim.NewEngine()
	body := func(th *sim.Thread) {
		for i := 0; i < 8; i++ {
			th.Advance(sim.Time(10 + th.ID()))
		}
	}
	var err error
	cycle := func() {
		e.Reset()
		for i := 0; i < 16; i++ {
			e.Spawn("w", body)
		}
		err = e.Run()
	}
	cycle() // warm the free lists and the worker pool
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Reset/Spawn/Run cycle allocates %v per run, want 0", got)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestSpanBeginEndZeroAlloc pins span recording — Begin, every
// builder setter, End into the flight ring — at zero allocations once
// the Open free list and the ring are warm.
func TestSpanBeginEndZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	chains := []func(rec *span.Recorder, now sim.Time){
		func(rec *span.Recorder, now sim.Time) {
			rec.Begin(span.KindFault, now).Proc(1).Track(2).Notef("probe %d", 3).End(now + 1)
		},
		func(rec *span.Recorder, now sim.Time) {
			rec.Begin(span.KindFault, now).Parent(1).Page(2).Note("probe").Attribute(sim.CauseFault, 1).End(now + 1)
		},
	}
	for i, chain := range chains {
		rec := span.NewRecorder(64)
		now := sim.Time(0)
		chain(rec, now) // warm the free list
		got := testing.AllocsPerRun(200, func() {
			now += 2
			chain(rec, now)
		})
		if got != 0 {
			t.Errorf("span setter chain %d allocates %v per op, want 0", i, got)
		}
	}
}

// TestRecordZeroAlloc pins direct Record calls (completed spans, the
// path Machine and System use per access) at zero allocations,
// including after the flight ring has wrapped.
func TestRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	rec := span.NewRecorder(8)
	sp := span.Span{Kind: span.KindFault, Start: 0, End: 1, Proc: 0, Page: -1}
	for i := 0; i < 16; i++ {
		rec.Record(sp) // fill and wrap the ring
	}
	if got := testing.AllocsPerRun(200, func() { rec.Record(sp) }); got != 0 {
		t.Errorf("Record allocates %v per op, want 0", got)
	}
}

// TestChargeTelemetryZeroAlloc pins the instrumented charge path: with
// histograms and the cause series enabled, Charge still must not
// allocate — telemetry records into preallocated storage.
func TestChargeTelemetryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	var allocs float64
	e := sim.NewEngine()
	e.EnableChargeHistograms(1)
	e.EnableCauseSeries(1000, 64)
	e.Spawn("meter", func(th *sim.Thread) {
		th.BindNode(0)
		for i := 0; i < 100; i++ {
			th.Charge(sim.CauseCompute, 1) // warm pools and the series ring
		}
		allocs = testing.AllocsPerRun(200, func() { th.Charge(sim.CauseCompute, 100) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Charge with telemetry allocates %v per op, want 0", allocs)
	}
}

// TestRecordTelemetryZeroAlloc pins instrumented span recording: with
// op histograms and the count series enabled, Record (and the freeze
// CountEvent hook) still must not allocate.
func TestRecordTelemetryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	rec := span.NewRecorder(8)
	rec.EnableOpHists()
	rec.EnableCountSeries(1000, 64)
	sp := span.Span{Kind: span.KindFault, Start: 0, End: 1, Proc: 0, Page: -1}
	for i := 0; i < 16; i++ {
		rec.Record(sp) // fill and wrap the ring
	}
	now := sim.Time(0)
	got := testing.AllocsPerRun(200, func() {
		now += 2
		sp.Start, sp.End = now, now+1
		rec.Record(sp)
		rec.CountEvent(now, span.CountFreeze)
	})
	if got != 0 {
		t.Errorf("Record with telemetry allocates %v per op, want 0", got)
	}
}
