package sim

import (
	"platinum/internal/hist"
	"platinum/internal/timeseries"
)

// Charge-path distributional telemetry. The Account layer keeps exact
// per-cause *totals*; this file optionally keeps, for the same charges,
// per-node per-cause latency *histograms* (internal/hist) and a
// windowed per-cause time *series* (internal/timeseries). Both are fed
// from the same two sites that update the per-node accounts (attribute
// and bank), so conservation extends to them by construction: for every
// bound node and classified cause, the histogram's exact Sum equals the
// node account's entry and its Count the number of non-zero charges —
// the invariant metrics.CheckHistConservation enforces.
//
// Like tracing and spans, telemetry is pure bookkeeping on the running
// thread: no allocation on the record path, no clock access, no
// yielding, so enabling it cannot change dispatch order or any
// simulation result. It is off by default and disabled again by Reset,
// exactly like the engine's other opt-in instrumentation.

// EnableChargeHistograms starts recording one latency histogram per
// (node, cause) pair for every classified charge made by a node-bound
// thread. nodes preallocates the storage (BindNode grows it on demand
// past that); call before Run so the recording is complete and the
// conservation check is exact. Storage from an earlier enable on the
// same engine is reused.
func (e *Engine) EnableChargeHistograms(nodes int) {
	if nodes < 0 {
		nodes = 0
	}
	e.growChargeHists(nodes)
	e.histsOn = true
	e.telemetry = true
}

// growChargeHists extends the node-major histogram storage to cover
// nodes, reusing retained capacity (zeroed by Reset) when possible.
// Cold path: called from EnableChargeHistograms and BindNode only.
func (e *Engine) growChargeHists(nodes int) {
	need := nodes * int(NumCauses)
	if need <= len(e.chargeHists) {
		return
	}
	if need <= cap(e.chargeHists) {
		// Within retained capacity: Reset zeroed the full capacity, so
		// extending exposes only empty histograms.
		e.chargeHists = e.chargeHists[:need]
		return
	}
	grown := make([]hist.H, need)
	copy(grown, e.chargeHists)
	e.chargeHists = grown
}

// EnableCauseSeries starts accumulating per-cause charged time into
// windows of the given virtual-time width, retaining the most recent
// capWindows windows (<= 0 selects the timeseries default). Charges are
// assigned to the window containing the charging thread's clock at
// record time. Call before Run; an earlier series on the same engine is
// reused when the shape allows.
func (e *Engine) EnableCauseSeries(window Time, capWindows int) {
	if e.causeSeries == nil {
		e.causeSeries = timeseries.New(int64(window), int(NumCauses), capWindows)
	} else {
		e.causeSeries.Reconfigure(int64(window), int(NumCauses), capWindows)
	}
	e.seriesOn = true
	e.telemetry = true
}

// recordCharge feeds one classified, node-bound charge (cause c, d > 0,
// at the thread clock at) into whichever telemetry sinks are enabled.
// Called only when e.telemetry is set, from the same sites that update
// the per-node accounts.
func (e *Engine) recordCharge(node int, c Cause, at, d Time) {
	if e.histsOn {
		if idx := node*int(NumCauses) + int(c); idx < len(e.chargeHists) {
			e.chargeHists[idx].Record(int64(d))
		}
	}
	if e.seriesOn {
		e.causeSeries.Add(int64(at), int(c), int64(d))
	}
}

// ChargeHistogramsEnabled reports whether charge-path histograms are
// recording.
func (e *Engine) ChargeHistogramsEnabled() bool { return e.histsOn }

// ChargeHistNodes returns how many nodes have histogram storage.
func (e *Engine) ChargeHistNodes() int { return len(e.chargeHists) / int(NumCauses) }

// ChargeHist returns the live histogram for (node, cause), or nil when
// histograms are off or the node has no storage. The histogram aliases
// engine state: read it only between runs.
func (e *Engine) ChargeHist(node int, c Cause) *hist.H {
	if !e.histsOn || node < 0 || c >= NumCauses {
		return nil
	}
	idx := node*int(NumCauses) + int(c)
	if idx >= len(e.chargeHists) {
		return nil
	}
	return &e.chargeHists[idx]
}

// CauseSeries returns the live per-cause time series (columns indexed
// by Cause), or nil when the series is off. It aliases engine state:
// read it only between runs.
func (e *Engine) CauseSeries() *timeseries.Series {
	if !e.seriesOn {
		return nil
	}
	return e.causeSeries
}

// resetTelemetry returns telemetry to its boot state (off) while
// keeping the storage both sinks have grown, mirroring how Reset
// handles nodeAcct: the histogram slice is zeroed across its full
// capacity and re-sliced empty so a later enable exposes only empty
// histograms without allocating.
func (e *Engine) resetTelemetry() {
	e.telemetry = false
	e.histsOn = false
	e.seriesOn = false
	hs := e.chargeHists[:cap(e.chargeHists)]
	for i := range hs {
		hs[i].Reset()
	}
	e.chargeHists = e.chargeHists[:0]
	if e.causeSeries != nil {
		e.causeSeries.Reset()
	}
}
