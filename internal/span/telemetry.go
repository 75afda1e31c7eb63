package span

import (
	"platinum/internal/hist"
	"platinum/internal/sim"
	"platinum/internal/timeseries"
)

// Composite-operation telemetry. Where internal/sim's charge histograms
// see individual charges, the recorder can optionally keep, per span
// kind, a latency histogram of *whole operations* — a full fault from
// handler entry to completion, a complete shootdown round, a block
// transfer — and a windowed count series of operation starts over
// simulated time. Both are fed from Record, the single funnel every
// completed span passes through, so they are exactly as complete as the
// flight ring's total count: histogram Count sums equal the number of
// recorded spans of each instrumented kind.
//
// Like retention, telemetry is pure bookkeeping on the recording
// thread — no allocation on the record path once enabled, no clock
// access, no yielding — so enabling it cannot change dispatch order or
// any simulation result. It is off by default and off again after
// Reset.

// HistogramKinds are the span kinds whose whole-operation durations get
// a latency histogram when EnableOpHists is on: the paper's composite
// costs (a coherent fault end to end, one shootdown round, one hardware
// block transfer) rather than their individual charge components.
var HistogramKinds = []Kind{
	KindFault,
	KindShootdown,
	KindBlockTransfer,
}

// Count-series columns: one per operation rate the windowed series
// tracks. Fault, shootdown and block-transfer starts come from Record;
// freezes and thaws are protocol events (a fault-path thaw has no span
// of its own), so core's event funnel reports them through CountEvent.
const (
	CountFault = iota
	CountShootdown
	CountBlockTransfer
	CountFreeze
	CountThaw

	NumCounts // sentinel: count of series columns
)

// CountName returns the stable snake_case name of a count-series
// column, used as the JSON field name in the metrics schema.
func CountName(col int) string {
	switch col {
	case CountFault:
		return "faults"
	case CountShootdown:
		return "shootdowns"
	case CountBlockTransfer:
		return "block_transfers"
	case CountFreeze:
		return "freezes"
	case CountThaw:
		return "thaws"
	}
	return "count(?)"
}

// histKind marks the kinds in HistogramKinds for O(1) hot-path lookup;
// countCol maps a span kind to its count-series column (-1 for kinds
// without one). Both are derived once at init.
var (
	histKind [numKinds]bool
	countCol [numKinds]int
)

func init() {
	for k := range countCol {
		countCol[k] = -1
	}
	for _, k := range HistogramKinds {
		histKind[k] = true
	}
	countCol[KindFault] = CountFault
	countCol[KindShootdown] = CountShootdown
	countCol[KindBlockTransfer] = CountBlockTransfer
}

// EnableOpHists starts recording one whole-operation latency histogram
// per kind in HistogramKinds. Call before the run so Count matches the
// recorder's totals; storage from an earlier enable is reused.
func (r *Recorder) EnableOpHists() {
	if r.opHists == nil {
		r.opHists = make([]hist.H, numKinds)
	}
	r.opHistsOn = true
}

// OpHist returns the live whole-operation histogram for kind k, or nil
// when op histograms are off or k is not a histogrammed kind. The
// histogram aliases recorder state: read it only between runs.
func (r *Recorder) OpHist(k Kind) *hist.H {
	if !r.opHistsOn || k >= numKinds || !histKind[k] {
		return nil
	}
	return &r.opHists[k]
}

// OpHistsEnabled reports whether whole-operation histograms are
// recording.
func (r *Recorder) OpHistsEnabled() bool { return r.opHistsOn }

// EnableCountSeries starts counting operation starts (columns CountFault
// .. CountThaw) into windows of the given virtual-time width, retaining
// capWindows windows (<= 0 selects the timeseries default). An earlier
// series on the same recorder is reused.
func (r *Recorder) EnableCountSeries(width sim.Time, capWindows int) {
	if r.counts == nil {
		r.counts = timeseries.New(int64(width), NumCounts, capWindows)
	} else {
		r.counts.Reconfigure(int64(width), NumCounts, capWindows)
	}
	r.countsOn = true
}

// CountSeries returns the live operation-count series (columns indexed
// by the Count* constants), or nil when the series is off. It aliases
// recorder state: read it only between runs.
func (r *Recorder) CountSeries() *timeseries.Series {
	if !r.countsOn {
		return nil
	}
	return r.counts
}

// CountEvent counts one occurrence of a series column at virtual time
// at, for the columns no span kind feeds (freezes and thaws). Nil-safe
// and a no-op when the count series is off, so callers need no guard.
func (r *Recorder) CountEvent(at sim.Time, col int) {
	if r == nil || !r.countsOn {
		return
	}
	r.counts.Add(int64(at), col, 1)
}

// recordTelemetry feeds one completed span into whichever sinks are
// enabled: the whole-operation duration histogram for histogrammed
// kinds, and the operation-count series at the span's start time.
// Called from Record only when r.telemetryOn() is true.
func (r *Recorder) recordTelemetry(sp *Span) {
	if r.opHistsOn && histKind[sp.Kind] {
		r.opHists[sp.Kind].Record(int64(sp.End - sp.Start))
	}
	if r.countsOn {
		if col := countCol[sp.Kind]; col >= 0 {
			r.counts.Add(int64(sp.Start), col, 1)
		}
	}
}

// telemetryOn reports whether any span telemetry sink is recording.
func (r *Recorder) telemetryOn() bool { return r.opHistsOn || r.countsOn }

// resetTelemetry returns span telemetry to its boot state (off) while
// keeping the storage both sinks have grown, so a pooled recorder's
// later enable allocates nothing.
func (r *Recorder) resetTelemetry() {
	r.opHistsOn = false
	r.countsOn = false
	for i := range r.opHists {
		r.opHists[i].Reset()
	}
	if r.counts != nil {
		r.counts.Reset()
	}
}
