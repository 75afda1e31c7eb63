package span

import (
	"testing"

	"platinum/internal/sim"
)

// TestOpHistRecordsCompositeKinds verifies whole-operation histograms
// see exactly the histogrammed kinds, with exact counts and sums.
func TestOpHistRecordsCompositeKinds(t *testing.T) {
	r := NewRecorder(0)
	r.EnableOpHists()
	r.Record(Span{Kind: KindFault, Start: 100, End: 350})
	r.Record(Span{Kind: KindFault, Start: 400, End: 900})
	r.Record(Span{Kind: KindShootdown, Start: 150, End: 250})
	r.Record(Span{Kind: KindDirLookup, Start: 110, End: 120}) // not histogrammed

	h := r.OpHist(KindFault)
	if h == nil || h.Count() != 2 || h.Sum() != 250+500 {
		t.Fatalf("fault hist count/sum = %v, want 2/750", h)
	}
	if h := r.OpHist(KindShootdown); h.Count() != 1 || h.Sum() != 100 {
		t.Errorf("shootdown hist count/sum = %d/%d, want 1/100", h.Count(), h.Sum())
	}
	if r.OpHist(KindDirLookup) != nil {
		t.Error("OpHist returned a histogram for a non-histogrammed kind")
	}
	if r.OpHist(KindBlockTransfer) == nil {
		t.Error("OpHist nil for an enabled histogrammed kind with no samples")
	}
}

// TestCountSeriesColumns verifies operation starts land in the right
// column and window, including freezes via CountEvent.
func TestCountSeriesColumns(t *testing.T) {
	r := NewRecorder(0)
	r.EnableCountSeries(1000, 16)
	r.Record(Span{Kind: KindFault, Start: 100, End: 350})
	r.Record(Span{Kind: KindFault, Start: 1500, End: 1600})
	r.Record(Span{Kind: KindThaw, Start: 2100, End: 2200})
	r.CountEvent(150, CountFreeze)

	s := r.CountSeries()
	if s == nil {
		t.Fatal("CountSeries nil with series enabled")
	}
	if got := s.At(0, CountFault); got != 1 {
		t.Errorf("window 0 faults = %d, want 1", got)
	}
	if got := s.At(1, CountFault); got != 1 {
		t.Errorf("window 1 faults = %d, want 1", got)
	}
	if got := s.At(2, CountThaw); got != 1 {
		t.Errorf("window 2 thaws = %d, want 1", got)
	}
	if got := s.At(0, CountFreeze); got != 1 {
		t.Errorf("window 0 freezes = %d, want 1", got)
	}
	if got := s.Total(CountFault); got != 2 {
		t.Errorf("fault total = %d, want 2", got)
	}
}

// TestCountEventNilSafe verifies the freeze hook is callable without a
// recorder or with the series off.
func TestCountEventNilSafe(t *testing.T) {
	var r *Recorder
	r.CountEvent(10, CountFreeze) // must not panic
	r2 := NewRecorder(0)
	r2.CountEvent(10, CountFreeze) // series off: no-op
	if r2.CountSeries() != nil {
		t.Error("CountSeries non-nil without enable")
	}
}

// TestTelemetryResetAndReuse verifies Reset turns span telemetry off,
// clears it, and a re-enabled recorder starts empty without losing the
// grown storage.
func TestTelemetryResetAndReuse(t *testing.T) {
	r := NewRecorder(0)
	r.EnableOpHists()
	r.EnableCountSeries(1000, 16)
	r.Record(Span{Kind: KindFault, Start: 0, End: 10})
	r.Reset()
	if r.OpHistsEnabled() || r.CountSeries() != nil {
		t.Error("telemetry still on after Reset")
	}
	r.EnableOpHists()
	r.EnableCountSeries(1000, 16)
	if h := r.OpHist(KindFault); h == nil || !h.Empty() {
		t.Error("re-enabled op hist not empty")
	}
	r.Record(Span{Kind: KindFault, Start: 0, End: 10})
	if h := r.OpHist(KindFault); h.Count() != 1 {
		t.Errorf("re-enabled op hist count = %d, want 1", h.Count())
	}
}

// TestHistogramCausesReconciled enforces the coupling HistogramCauses
// documents: every histogrammed cause must reconcile, and each
// histogrammed kind has exactly one cause.
func TestHistogramCausesReconciled(t *testing.T) {
	reconciled := make(map[sim.Cause]bool, len(ReconciledCauses))
	for _, c := range ReconciledCauses {
		reconciled[c] = true
	}
	for _, c := range HistogramCauses {
		if !reconciled[c] {
			t.Errorf("HistogramCauses contains %v, which is not in ReconciledCauses", c)
		}
	}
	if len(HistogramKinds) != len(HistogramCauses) {
		t.Errorf("HistogramKinds (%d) and HistogramCauses (%d) lengths differ",
			len(HistogramKinds), len(HistogramCauses))
	}
}
