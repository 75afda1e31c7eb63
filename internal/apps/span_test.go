package apps

import (
	"bytes"
	"testing"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// The tentpole guarantees for causal span tracing, checked on real
// workloads: per-cause span durations reconcile exactly with the
// engine's Account totals, spans nest properly on every track, and
// recording has zero effect on the simulation itself.

// bootSpans boots a PLATINUM platform with span retention enabled and
// the defrost daemon sped up so sweeps (and thaw spans) occur within
// the short test runs.
func bootSpans(t *testing.T) *PlatinumPlatform {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Core.DefrostPeriod = 2 * sim.Millisecond
	pl, err := NewPlatinumPlatform(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	pl.K.EnableSpans(0)
	return pl
}

// checkSpans validates the recorded spans against the run's totals:
// exact per-cause reconciliation plus structural nesting.
func checkSpans(t *testing.T, pl *PlatinumPlatform) []span.Span {
	t.Helper()
	rec := pl.K.Spans()
	if rec.Dropped() > 0 {
		t.Fatalf("retained span buffer overflowed: %d dropped", rec.Dropped())
	}
	spans := rec.Spans()
	if err := span.Reconcile(spans, pl.K.TotalAccount()); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if err := span.ValidateNesting(spans); err != nil {
		t.Fatalf("nesting: %v", err)
	}
	return spans
}

// kinds tallies span kinds.
func kinds(spans []span.Span) map[span.Kind]int {
	m := make(map[span.Kind]int)
	for _, sp := range spans {
		m[sp.Kind]++
	}
	return m
}

func TestSpansReconcileGauss(t *testing.T) {
	pl := bootSpans(t)
	cfg := DefaultGaussConfig(48, 4)
	res, err := RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatalf("gauss: %v", err)
	}
	if res.Checksum != GaussReferenceChecksum(cfg) {
		t.Fatalf("gauss checksum mismatch: %#x", res.Checksum)
	}
	spans := checkSpans(t, pl)
	have := kinds(spans)
	for _, k := range []span.Kind{
		span.KindFault, span.KindDirLookup, span.KindShootdown,
		span.KindShootTarget, span.KindBlockTransfer, span.KindMapUpdate,
		span.KindSlice, span.KindDefrostSweep, span.KindThaw,
	} {
		if have[k] == 0 {
			t.Errorf("no %v spans recorded", k)
		}
	}
	// Every fault span carries its page and cause tags.
	for _, sp := range spans {
		if sp.Kind == span.KindFault && (sp.Page < 0 || sp.Note == "") {
			t.Fatalf("fault span missing tags: %+v", sp)
		}
	}
}

func TestSpansReconcileMergeSort(t *testing.T) {
	pl := bootSpans(t)
	cfg := DefaultMergeSortConfig(4)
	cfg.Words = 1 << 13
	res, err := RunMergeSort(pl, cfg)
	if err != nil {
		t.Fatalf("mergesort: %v", err)
	}
	if !res.Sorted {
		t.Fatal("mergesort output not sorted")
	}
	spans := checkSpans(t, pl)
	have := kinds(spans)
	for _, k := range []span.Kind{span.KindFault, span.KindBlockTransfer, span.KindSlice} {
		if have[k] == 0 {
			t.Errorf("no %v spans recorded", k)
		}
	}
}

// gaussReport runs gauss and renders the full metrics report to JSON.
func gaussReport(t *testing.T, retain bool) (sim.Time, []byte) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	cfg.Core.DefrostPeriod = 2 * sim.Millisecond
	pl, err := NewPlatinumPlatform(cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if retain {
		pl.K.EnableSpans(0)
	}
	gcfg := DefaultGaussConfig(32, 4)
	res, err := RunGaussPlatinum(pl, gcfg)
	if err != nil {
		t.Fatalf("gauss: %v", err)
	}
	if res.Checksum != GaussReferenceChecksum(gcfg) {
		t.Fatalf("gauss checksum mismatch: %#x", res.Checksum)
	}
	rep := metrics.BuildReport("gauss", 4, pl.Elapsed(), pl.Accounts(), pl.K.Report())
	var b bytes.Buffer
	if err := metrics.WriteJSON(&b, rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	return pl.Elapsed(), b.Bytes()
}

// TestSpanRetentionDoesNotPerturb is the determinism gate for the
// tracer: a run with full span retention must produce a byte-identical
// metrics report (same virtual times, same per-cause accounts, same
// protocol statistics) as a run with only the always-on flight ring.
func TestSpanRetentionDoesNotPerturb(t *testing.T) {
	offElapsed, off := gaussReport(t, false)
	onElapsed, on := gaussReport(t, true)
	if offElapsed != onElapsed {
		t.Fatalf("elapsed differs: retain-off %d, retain-on %d", offElapsed, onElapsed)
	}
	if !bytes.Equal(off, on) {
		t.Fatalf("metrics report differs with span retention on:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
}

// TestEventSinksAgree runs §4.2's thaw-on-fault policy variant, whose
// replication and migration paths thaw frozen pages without the defrost
// daemon, and checks that every protocol action reaches the per-page
// counters and the event trace alike, and that freezes and thaws also
// reach the operation-count series.
func TestEventSinksAgree(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Core.Policy = core.NewPlatinumPolicy(core.DefaultT1, true)
	pl, err := NewPlatinumPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.K.EnableTrace(1 << 20)
	pl.K.EnableSeries(10*sim.Millisecond, 0)
	if _, err := RunGaussPlatinum(pl, DefaultGaussConfig(128, 8)); err != nil {
		t.Fatal(err)
	}
	events, dropped := pl.K.Trace()
	if dropped > 0 {
		t.Fatalf("trace dropped %d events", dropped)
	}
	traced := make(map[core.EventKind]int64)
	for _, ev := range events {
		traced[ev.Kind]++
	}
	counted := make(map[core.EventKind]int64)
	for _, cp := range pl.K.System().Cpages() {
		st := cp.Stats
		counted[core.EvReadFault] += st.ReadFaults
		counted[core.EvWriteFault] += st.WriteFaults
		counted[core.EvReplication] += st.Replications
		counted[core.EvMigration] += st.Migrations
		counted[core.EvInvalidation] += st.Invalidations
		counted[core.EvRemoteMap] += st.RemoteMaps
		counted[core.EvFreeze] += st.Freezes
		counted[core.EvThaw] += st.Thaws
	}
	for _, k := range core.EventKinds() {
		if counted[k] != traced[k] {
			t.Errorf("%v: counters say %d, trace has %d", k, counted[k], traced[k])
		}
	}
	series := pl.K.Spans().CountSeries()
	for k, col := range map[core.EventKind]int{core.EvFreeze: span.CountFreeze, core.EvThaw: span.CountThaw} {
		if got := series.Total(col); got != counted[k] {
			t.Errorf("%v: counters say %d, count series has %d", k, counted[k], got)
		}
	}
	if counted[core.EvThaw] == 0 {
		t.Error("thaw-on-fault policy never thawed a page on a fault")
	}
}
