package platinum

// Alloc-regression gates for the pooled simulation core: the engine
// step (Advance, both the fast path and the fused handoff, Delay+Sync,
// and the Block/Unblock handoff), a whole Reset/Spawn/Run cycle, span
// Begin/End recording, and account charging must not allocate in
// steady state, and a run on a fresh engine and a whole quick Fig. 1
// regeneration are pinned at their steady-state counts. The Chrome span export must make as many
// allocations for 10,000 spans as for 1,000
// (TestChromeExportSteadyAllocs), the report export as many for 1,000
// pages and windows as for 10 (TestReportExportSteadyAllocs), and
// Recorder.Spans only the slice it returns (TestRecorderSpansSteadyAllocs).
// These are the invariants the pooling/arena design and the streaming
// exports bought;
// testing.AllocsPerRun pins them against the compiler's actual escape
// analysis so they cannot silently rot.
//
// The tests skip under -race: the detector instruments allocations of
// its own. CI's test job runs them in its go test ./..., without -race.

import (
	"io"
	"strconv"
	"testing"

	"platinum/internal/core"
	"platinum/internal/exp"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
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
// lockstep, every Advance a coroutine switch to the peer — at zero
// allocations.
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

// TestDelaySyncZeroAlloc pins the deferred dispatch check — a Delay,
// then the Sync that makes its check — at zero allocations, both in
// place (a lone thread stays the earliest) and through a handoff (a
// peer in lockstep runs before every Sync returns).
func TestDelaySyncZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	step := func(th *sim.Thread) {
		th.Delay(100)
		th.Sync()
	}
	if got := measureInThread(t, step); got != 0 {
		t.Errorf("Delay+Sync in place allocates %v per op, want 0", got)
	}
	var allocs float64
	done := false
	e := sim.NewEngine()
	e.Spawn("meter", func(th *sim.Thread) {
		for i := 0; i < 100; i++ {
			step(th) // warm-up handoffs
		}
		allocs = testing.AllocsPerRun(200, func() { step(th) })
		done = true
	})
	e.Spawn("peer", func(th *sim.Thread) {
		// done is safe to share for the reason TestHandoffZeroAlloc
		// gives.
		for !done {
			th.Advance(100)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Delay+Sync through a handoff allocates %v per op, want 0", allocs)
	}
	if _, resumes := e.Stats(); resumes < 300 {
		t.Errorf("%d resumes: the Syncs did not hand off to the peer", resumes)
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

// freshEngineAllocs is what a run on a fresh engine costs once the
// idle worker pool is warm — NewEngine, eight Spawns of a closure each,
// and Run: the engine (1), the threads (8), their closures (8), and the
// growth of the thread table and of the ready heap to eight entries
// (4 each). Dispatch bookkeeping adds none: the engine keeps its idle
// workers in a list linked through the workers. Packages such as uma,
// baseline and model boot a fresh engine for every run.
const freshEngineAllocs = 25

// TestFreshEngineSteadyAllocs pins a run on a fresh engine at exactly
// freshEngineAllocs allocations.
func TestFreshEngineSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	var err error
	run := func() {
		e := sim.NewEngine()
		for j := 0; j < 8; j++ {
			e.Spawn("w", func(th *sim.Thread) {
				th.Advance(sim.Time(1 + j))
				th.Advance(3)
			})
		}
		err = e.Run()
	}
	run() // warm the worker pool
	if got := testing.AllocsPerRun(100, run); got != freshEngineAllocs {
		t.Errorf("a run on a fresh engine makes %v allocations, want %d", got, freshEngineAllocs)
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
			rec.Begin(span.KindFault, now).Note("probe").End(now + 1)
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
// the count series enabled, Record (and the freeze CountEvent hook)
// still must not allocate.
func TestRecordTelemetryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	rec := span.NewRecorder(8)
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

// fig1SteadyAllocs is a quick Fig. 1 regeneration's allocation count
// once the platform pool, the idle coroutine workers and every reused
// buffer are warm: BenchmarkFig1Gauss's operation, on one host worker
// so the count does not depend on the host's processor count (at the
// default parallelism it is 328 on 2 CPUs; the first, cold run in a
// fresh process makes about 6700). About 28 of them are the job pool
// the experiment runs on alone: its worker, queue, batch and memo. It
// does not depend on when the collector runs either: the run formats
// with strconv, not with fmt, whose pooled printers a collection
// discards.
const fig1SteadyAllocs = 327

// TestFig1GaussSteadyAllocs pins a whole quick Fig. 1 regeneration at
// exactly fig1SteadyAllocs allocations. A change that moves the count
// either way updates the constant and says why.
func TestFig1GaussSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	fig1, ok := exp.Find("fig1")
	if !ok {
		t.Fatal("no fig1 experiment")
	}
	var err error
	run := func() {
		if _, e := fig1.Run(exp.Options{Quick: true, Parallelism: 1}); e != nil {
			err = e
		}
	}
	run() // cold: boot and pool the platforms
	got := testing.AllocsPerRun(3, run)
	if err != nil {
		t.Fatal(err)
	}
	if got != fig1SteadyAllocs {
		t.Errorf("quick fig1 makes %v allocations per run, want %d", got, fig1SteadyAllocs)
	}
}

// chromeRecording is a synthetic recording of n spans in the order
// Recorder.Spans returns them, on 16 tracks (one per processor) and 64
// pages: each track opens with a slice span naming it, and the rest
// are faults (mirrored on their page's track) and shootdowns with
// literal notes, and block transfers with core's lazy "module %d->%d"
// note, whose '>' JSON escapes.
func chromeRecording(n int) []span.Span {
	spans := make([]span.Span, n)
	for i := range spans {
		sp := span.Span{ID: span.ID(i + 1), Start: sim.Time(10 * i), End: sim.Time(10*i + 7),
			Proc: i % 16, Track: i % 16, Page: int64(i % 64)}
		switch {
		case i < 16:
			sp.Kind, sp.Page, sp.Note = span.KindSlice, -1, "worker-"+strconv.Itoa(i)
		case i%3 == 0:
			sp.Kind, sp.Cause, sp.Self, sp.Note = span.KindFault, sim.CauseFault, 5, "read-fault"
			sp.State, sp.DirMask = "present1", 1<<(i%16)
		case i%3 == 1:
			sp.Kind, sp.Parent, sp.Cause, sp.Self, sp.Note = span.KindShootdown, span.ID(i), sim.CauseShootdown, 3, "round"
		default:
			sp.Kind, sp.Cause, sp.Self = span.KindBlockTransfer, sim.CauseBlockTransfer, 7
			sp.NoteFmt, sp.NoteArg0, sp.NoteArg1, sp.NoteN = "module %d->%d", i%16, (i+1)%16, 2
		}
		spans[i] = sp
	}
	return spans
}

// TestChromeExportSteadyAllocs pins the Chrome span export's
// allocations as independent of the recording's length: 10,000 spans
// cost exactly as many as 1,000 on the same tracks and pages, because
// every event is appended into one reused buffer and every note,
// literal or lazy, is copied or rendered into it directly.
func TestChromeExportSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	var err error
	export := func(spans []span.Span) float64 {
		return testing.AllocsPerRun(5, func() {
			if e := span.WriteChrome(io.Discard, spans); e != nil {
				err = e
			}
		})
	}
	small, large := export(chromeRecording(1000)), export(chromeRecording(10000))
	if err != nil {
		t.Fatal(err)
	}
	if small != large {
		t.Errorf("Chrome export makes %v allocations for 1,000 spans and %v for 10,000, want the same", small, large)
	}
}

// syntheticReport is a version 2 report with n pages and n series
// windows, each window with times and counts, and histograms of real
// sources: one node's n fault charges of n sizes, so the fault
// distribution fills more buckets as n grows, and n retained fault
// spans.
func syntheticReport(n int) metrics.Report {
	var nodes []sim.Account
	for i := 0; i < 4; i++ {
		var a sim.Account
		a[sim.CauseCompute], a[sim.CauseFault] = sim.Time(1000*i), 7
		nodes = append(nodes, a)
	}
	cr := core.Report{Policy: "platinum"}
	for i := 0; i < n; i++ {
		cr.Pages = append(cr.Pages, core.PageReport{ID: int64(i), Label: "gauss-matrix[" + strconv.Itoa(i) + "]",
			CpageStats: core.CpageStats{ReadFaults: int64(i), FaultTime: sim.Time(i)}})
	}
	r := metrics.BuildReport("gauss", 4, 123456, nodes, cr)
	e := sim.NewEngine()
	e.EnableChargeHistograms(1)
	e.Spawn("faulter", func(th *sim.Thread) {
		th.BindNode(0)
		for i := 1; i <= n; i++ {
			th.Charge(sim.CauseFault, sim.Time(i*i))
		}
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
	rec := span.NewRecorder(0)
	rec.EnableRetain(0)
	cause := timeseries.New(1000, int(sim.NumCauses), 0)
	counts := timeseries.New(1000, span.NumCounts, 0)
	for i := 0; i < n; i++ {
		rec.Record(span.Span{Kind: span.KindFault, Start: sim.Time(1000 * i), End: sim.Time(1000*i + i)})
		cause.Add(int64(1000*i), int(sim.CauseFault), int64(i+1))
		cause.Add(int64(1000*i), int(sim.CauseCompute), 5)
		counts.Add(int64(1000*i), span.CountFault, 1)
	}
	r.AttachTelemetry(metrics.BuildHistograms(e, rec), metrics.BuildSeries(cause, counts))
	return r
}

// TestReportExportSteadyAllocs pins the report export's allocations as
// independent of its length: 1,000 pages and windows cost exactly as
// many as 10, because the report is streamed into one reused buffer.
func TestReportExportSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	var err error
	export := func(r metrics.Report) float64 {
		return testing.AllocsPerRun(5, func() {
			if e := metrics.WriteJSON(io.Discard, r); e != nil {
				err = e
			}
		})
	}
	small, large := export(syntheticReport(10)), export(syntheticReport(1000))
	if err != nil {
		t.Fatal(err)
	}
	if small != large {
		t.Errorf("report export makes %v allocations for 10 pages and windows and %v for 1,000, want the same", small, large)
	}
}

// TestRecorderSpansSteadyAllocs pins Recorder.Spans at no allocation: it
// orders the retained buffer in place, with sort keys the recorder keeps
// and reuses. Each measured call first refills the buffer out of start
// order, since a second call would find it sorted.
func TestRecorderSpansSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates; run without -race")
	}
	rec := span.NewRecorder(0)
	fill := func() {
		rec.EnableRetain(0)
		for i := 0; i < 5000; i++ { // children complete before parents: out of start order
			rec.Record(span.Span{Kind: span.KindFault, Start: sim.Time(5000 - i%7*100 - i), End: sim.Time(6000 + i), Page: -1})
		}
	}
	if got := testing.AllocsPerRun(5, func() { fill(); rec.Spans() }); got != 0 {
		t.Errorf("refilling and ordering the recorder makes %v allocations, want none", got)
	}
}
