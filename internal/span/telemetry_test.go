package span

import "testing"

// TestOpHistRecordsCompositeKinds verifies a whole-operation histogram
// is derived from exactly the retained spans of its kind, with exact
// counts and sums, and is nil while spans are not retained.
func TestOpHistRecordsCompositeKinds(t *testing.T) {
	r := NewRecorder(0)
	r.Record(Span{Kind: KindFault, Start: 0, End: 5000}) // before retention
	if r.OpHist(KindFault) != nil {
		t.Fatal("OpHist non-nil without retention")
	}
	r.EnableRetain(0)
	r.Record(Span{Kind: KindFault, Start: 100, End: 350})
	r.Record(Span{Kind: KindFault, Start: 400, End: 900})
	r.Record(Span{Kind: KindShootdown, Start: 150, End: 250})
	r.Record(Span{Kind: KindDirLookup, Start: 110, End: 120})

	if h := r.OpHist(KindFault); h == nil || h.Count() != 2 || h.Sum() != 250+500 || h.Max() != 500 {
		t.Fatalf("fault hist = %v, want count 2, sum 750, max 500", h)
	}
	if h := r.OpHist(KindShootdown); h.Count() != 1 || h.Sum() != 100 {
		t.Errorf("shootdown hist count/sum = %d/%d, want 1/100", h.Count(), h.Sum())
	}
	if h := r.OpHist(KindBlockTransfer); h == nil || !h.Empty() {
		t.Error("block-transfer hist not empty with no block-transfer spans retained")
	}
	if got := len(r.Spans()); got != 4 {
		t.Errorf("OpHist disturbed the recording: %d spans retained, want 4", got)
	}
}

// TestCountSeriesColumns verifies operation starts land in the right
// column and window, including freezes via CountEvent.
func TestCountSeriesColumns(t *testing.T) {
	r := NewRecorder(0)
	r.EnableCountSeries(1000, 16)
	r.Record(Span{Kind: KindFault, Start: 100, End: 350})
	r.Record(Span{Kind: KindFault, Start: 1500, End: 1600})
	r.Record(Span{Kind: KindThaw, Start: 2100, End: 2200}) // thaws are not counted from spans
	r.CountEvent(2150, CountThaw)
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

// TestTelemetryResetAndReuse verifies Reset turns span telemetry off —
// the count series and the retention op histograms derive from — and
// clears it, and a re-enabled recorder starts empty without losing the
// grown storage.
func TestTelemetryResetAndReuse(t *testing.T) {
	r := NewRecorder(0)
	r.EnableRetain(0)
	r.EnableCountSeries(1000, 16)
	r.Record(Span{Kind: KindFault, Start: 0, End: 10})
	r.Reset()
	if r.OpHist(KindFault) != nil || r.CountSeries() != nil {
		t.Error("telemetry still on after Reset")
	}
	r.EnableRetain(0)
	r.EnableCountSeries(1000, 16)
	if h := r.OpHist(KindFault); h == nil || !h.Empty() {
		t.Error("re-enabled op hist not empty")
	}
	if s := r.CountSeries(); !s.Empty() {
		t.Error("re-enabled count series not empty")
	}
	r.Record(Span{Kind: KindFault, Start: 0, End: 10})
	if h := r.OpHist(KindFault); h.Count() != 1 {
		t.Errorf("re-enabled op hist count = %d, want 1", h.Count())
	}
	if got := r.CountSeries().Total(CountFault); got != 1 {
		t.Errorf("re-enabled fault count = %d, want 1", got)
	}
}
