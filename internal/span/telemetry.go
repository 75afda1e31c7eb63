package span

import (
	"platinum/internal/hist"
	"platinum/internal/sim"
	"platinum/internal/timeseries"
)

// Composite-operation telemetry. Where internal/sim's charge histograms
// see individual charges, the recorder derives, per span kind, a
// latency histogram of *whole operations* — a full fault from handler
// entry to completion, a complete shootdown round, a block transfer —
// from the retained spans at export (OpHist), and can keep a windowed
// count series of operation starts over simulated time, fed live from
// Record, the single funnel every completed span passes through.
//
// The count series is pure bookkeeping on the recording thread — no
// allocation on the record path once enabled, no clock access, no
// yielding — so enabling it cannot change dispatch order or any
// simulation result. It is off by default and off again after Reset.

// HistogramKinds are the span kinds whose whole-operation durations the
// report's op histograms cover: the paper's composite costs (a coherent
// fault end to end, one shootdown round, one hardware block transfer)
// rather than their individual charge components.
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

// countCol maps a span kind to its count-series column (-1 for kinds
// without one), derived once at init.
var countCol [numKinds]int

func init() {
	for k := range countCol {
		countCol[k] = -1
	}
	countCol[KindFault] = CountFault
	countCol[KindShootdown] = CountShootdown
	countCol[KindBlockTransfer] = CountBlockTransfer
}

// OpHist builds kind k's whole-operation duration histogram from the
// retained spans, or returns nil when spans are not retained. It reads
// the retained buffer in place, so a recording that dropped spans
// (Dropped() > 0) yields a partial histogram.
func (r *Recorder) OpHist(k Kind) *hist.H {
	if !r.retaining {
		return nil
	}
	h := new(hist.H)
	for i := range r.retain {
		if sp := &r.retain[i]; sp.Kind == k {
			h.Record(int64(sp.End - sp.Start))
		}
	}
	return h
}

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

// recordTelemetry counts one completed span's start in the
// operation-count series. Called from Record only while the series is
// on.
func (r *Recorder) recordTelemetry(sp *Span) {
	if col := countCol[sp.Kind]; col >= 0 {
		r.counts.Add(int64(sp.Start), col, 1)
	}
}

// resetTelemetry turns the count series off while keeping its storage,
// so a pooled recorder's later enable allocates nothing.
func (r *Recorder) resetTelemetry() {
	r.countsOn = false
	if r.counts != nil {
		r.counts.Reset()
	}
}
