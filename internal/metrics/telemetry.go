package metrics

import (
	"fmt"
	"slices"
	"strings"

	"platinum/internal/hist"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
)

// Distributional telemetry schema (schema version 2). A report built
// from a run with histograms or time series enabled carries two extra
// sections — "histograms" and "series" — and bumps its schema_version
// to SchemaVersionTelemetry. Both sections are strictly additive and
// omitted entirely when telemetry was not enabled, so zero-config
// output stays byte-identical to schema version 1 (a golden test pins
// this).
//
// Like the rest of the schema, durations are int64 nanoseconds of
// virtual time with an `_ns` suffix, and fields are only ever added.

// SchemaVersionTelemetry is the schema version a Report carries once
// telemetry sections are attached (AttachTelemetry).
const SchemaVersionTelemetry = 2

// BucketMetrics is one non-empty histogram bucket: Count samples whose
// values fell in [LoNs, HiNs].
type BucketMetrics struct {
	LoNs  int64 `json:"lo_ns"`
	HiNs  int64 `json:"hi_ns"`
	Count int64 `json:"count"`
}

// HistogramMetrics is one latency distribution: exact count, sum and
// max alongside log-bucketed percentiles (upper bucket bounds, so each
// quantile is exact to within the bucket's <=12.5% relative width and
// never exceeds the true maximum). Buckets, when present, list only
// non-empty buckets.
type HistogramMetrics struct {
	Name    string          `json:"name"`
	Count   int64           `json:"count"`
	SumNs   int64           `json:"sum_ns"`
	MaxNs   int64           `json:"max_ns"`
	P50Ns   int64           `json:"p50_ns"`
	P90Ns   int64           `json:"p90_ns"`
	P99Ns   int64           `json:"p99_ns"`
	P999Ns  int64           `json:"p999_ns"`
	Buckets []BucketMetrics `json:"buckets,omitempty"`
}

// FromHist converts one histogram. withBuckets selects whether the
// sparse bucket listing rides along (machine-wide sections carry it;
// per-node sections keep percentiles only, for size).
func FromHist(name string, h *hist.H, withBuckets bool) HistogramMetrics {
	m := HistogramMetrics{
		Name:   name,
		Count:  h.Count(),
		SumNs:  h.Sum(),
		MaxNs:  h.Max(),
		P50Ns:  h.Quantile(0.50),
		P90Ns:  h.Quantile(0.90),
		P99Ns:  h.Quantile(0.99),
		P999Ns: h.Quantile(0.999),
	}
	if withBuckets {
		h.Each(func(lo, hi, count int64) {
			m.Buckets = append(m.Buckets, BucketMetrics{LoNs: lo, HiNs: hi, Count: count})
		})
	}
	return m
}

// NodeHistograms is one node's per-cause charge distributions
// (percentiles only; the machine-wide section has the buckets).
type NodeHistograms struct {
	Node   int                `json:"node"`
	Causes []HistogramMetrics `json:"causes"`
}

// Histograms is the report's "histograms" section. Charges are
// machine-wide per-cause charge distributions (every node's histogram
// for that cause merged); Ops are whole-operation distributions (full
// fault, shootdown round, block transfer) derived from the retained
// spans; Nodes breaks the charge distributions down per node. Empty
// distributions are omitted throughout, so the section's size tracks
// what actually ran.
type Histograms struct {
	Charges []HistogramMetrics `json:"charges"`
	Ops     []HistogramMetrics `json:"ops,omitempty"`
	Nodes   []NodeHistograms   `json:"nodes,omitempty"`
}

// BuildHistograms assembles the histograms section from an engine with
// charge histograms enabled, adding the op histograms when rec retains
// spans (kernel.EnableHistograms turns both on). Returns nil when
// charge histograms are off — the omitempty contract for unconfigured
// runs.
func BuildHistograms(e *sim.Engine, rec *span.Recorder) *Histograms {
	if e == nil || !e.ChargeHistogramsEnabled() {
		return nil
	}
	out := &Histograms{}
	nodes := e.ChargeHistNodes()
	var merged hist.H
	for c := sim.Cause(0); c < sim.NumCauses; c++ {
		merged.Reset()
		for n := 0; n < nodes; n++ {
			if h := e.ChargeHist(n, c); h != nil {
				merged.Merge(h)
			}
		}
		if !merged.Empty() {
			out.Charges = append(out.Charges, FromHist(c.String(), &merged, true))
		}
	}
	for n := 0; n < nodes; n++ {
		nh := NodeHistograms{Node: n}
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			if h := e.ChargeHist(n, c); h != nil && !h.Empty() {
				nh.Causes = append(nh.Causes, FromHist(c.String(), h, false))
			}
		}
		if len(nh.Causes) > 0 {
			out.Nodes = append(out.Nodes, nh)
		}
	}
	if rec != nil && rec.Retaining() {
		for _, k := range span.HistogramKinds {
			if h := rec.OpHist(k); !h.Empty() {
				out.Ops = append(out.Ops, FromHist(k.String(), h, true))
			}
		}
	}
	return out
}

// SeriesWindow is one window of the report's time series: per-cause
// charged time and per-operation counts during [StartNs,
// StartNs+WidthNs). All-zero rows are omitted from the report, and
// within a window only non-zero entries appear, so the stream size
// tracks activity. WriteJSON writes TimeNs as "time_ns", an object
// keyed by cause name (sim.Cause.String), and Counts as "counts",
// keyed by count name (span.CountName), each in name order and left
// out when all its entries are zero.
type SeriesWindow struct {
	StartNs int64 `json:"start_ns"`
	TimeNs  [sim.NumCauses]int64
	Counts  [span.NumCounts]int64
}

// SeriesMetrics is the report's "series" section: rate curves over
// simulated time in fixed-width windows. SpilledWindows counts windows
// with data evicted from the retained rings (their contents are
// preserved in the sources' spill accumulators but not listed here);
// zero means the listing is complete.
type SeriesMetrics struct {
	WidthNs        int64          `json:"width_ns"`
	SpilledWindows int64          `json:"spilled_windows,omitempty"`
	Windows        []SeriesWindow `json:"windows"`
}

// BuildSeries assembles the series section from the engine's per-cause
// charged-time series and the span recorder's operation-count series
// (either may be nil; both nil returns nil). When both are present they
// must share one geometry — kernel.EnableSeries configures them
// together — so a window is evicted from the listing once: the listing
// starts at the later of their lowest retained windows, where both
// series still hold their columns, and SpilledWindows counts the
// evictions of the series that evicted more.
func BuildSeries(cause, counts *timeseries.Series) *SeriesMetrics {
	if cause == nil && counts == nil {
		return nil
	}
	out := &SeriesMetrics{}
	lo, hi := int64(0), int64(-1)
	for _, s := range [...]*timeseries.Series{cause, counts} {
		if s == nil {
			continue
		}
		if out.WidthNs == 0 {
			out.WidthNs = s.Width()
		} else if s.Width() != out.WidthNs {
			panic(fmt.Sprintf("metrics: series width mismatch: %d vs %d", out.WidthNs, s.Width()))
		}
		out.SpilledWindows = max(out.SpilledWindows, s.SpilledWindows())
		if !s.Empty() {
			lo, hi = max(lo, s.LoWindow()), max(hi, s.HiWindow())
		}
	}
	width := out.WidthNs
	if hi >= lo {
		out.Windows = make([]SeriesWindow, 0, hi-lo+1)
	}
	for w := lo; w <= hi; w++ {
		sw := SeriesWindow{StartNs: w * width}
		nonzero := false
		if cause != nil {
			for c := range sw.TimeNs {
				sw.TimeNs[c] = cause.At(w, c)
				nonzero = nonzero || sw.TimeNs[c] != 0
			}
		}
		if counts != nil {
			for col := range sw.Counts {
				sw.Counts[col] = counts.At(w, col)
				nonzero = nonzero || sw.Counts[col] != 0
			}
		}
		if nonzero {
			out.Windows = append(out.Windows, sw)
		}
	}
	if len(out.Windows) == 0 {
		out.Windows = nil // no window with data: the listing is null, not []
	}
	return out
}

// causesByName and countsByName list the causes and count columns in
// name order, the order encoding/json gives a map's keys.
var (
	causesByName = byName(int(sim.NumCauses), causeName)
	countsByName = byName(span.NumCounts, span.CountName)
)

func causeName(c int) string { return sim.Cause(c).String() }

func byName(n int, name func(int) string) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(name(a), name(b)) })
	return order
}

func writeHistograms(j *span.JSONWriter, h *Histograms) {
	j.OpenObject()
	j.Key("charges")
	writeArray(j, h.Charges, writeHist)
	if len(h.Ops) > 0 {
		j.Key("ops")
		writeArray(j, h.Ops, writeHist)
	}
	if len(h.Nodes) > 0 {
		j.Key("nodes")
		writeArray(j, h.Nodes, func(j *span.JSONWriter, n *NodeHistograms) {
			j.OpenObject()
			j.Key("node").Int(int64(n.Node))
			j.Key("causes")
			writeArray(j, n.Causes, writeHist)
			j.CloseObject()
		})
	}
	j.CloseObject()
}

func writeHist(j *span.JSONWriter, m *HistogramMetrics) {
	j.OpenObject()
	j.Key("name").String(m.Name)
	j.Key("count").Int(m.Count)
	j.Key("sum_ns").Int(m.SumNs)
	j.Key("max_ns").Int(m.MaxNs)
	j.Key("p50_ns").Int(m.P50Ns)
	j.Key("p90_ns").Int(m.P90Ns)
	j.Key("p99_ns").Int(m.P99Ns)
	j.Key("p999_ns").Int(m.P999Ns)
	if len(m.Buckets) > 0 {
		j.Key("buckets")
		writeArray(j, m.Buckets, func(j *span.JSONWriter, b *BucketMetrics) {
			j.OpenObject()
			j.Key("lo_ns").Int(b.LoNs)
			j.Key("hi_ns").Int(b.HiNs)
			j.Key("count").Int(b.Count)
			j.CloseObject()
		})
	}
	j.CloseObject()
}

func writeSeries(j *span.JSONWriter, s *SeriesMetrics) {
	j.OpenObject()
	j.Key("width_ns").Int(s.WidthNs)
	if s.SpilledWindows != 0 {
		j.Key("spilled_windows").Int(s.SpilledWindows)
	}
	j.Key("windows")
	writeArray(j, s.Windows, func(j *span.JSONWriter, w *SeriesWindow) {
		j.OpenObject()
		j.Key("start_ns").Int(w.StartNs)
		writeNamed(j, "time_ns", w.TimeNs[:], causesByName, causeName)
		writeNamed(j, "counts", w.Counts[:], countsByName, span.CountName)
		j.CloseObject()
	})
	j.CloseObject()
}

// writeNamed writes vals' non-zero entries under key as an object
// keyed by name, in the name order order gives; nothing when all are
// zero.
func writeNamed(j *span.JSONWriter, key string, vals []int64, order []int, name func(int) string) {
	if !slices.ContainsFunc(vals, func(v int64) bool { return v != 0 }) {
		return
	}
	j.Key(key).OpenObject()
	for _, i := range order {
		if vals[i] != 0 {
			j.Key(name(i)).Int(vals[i])
		}
	}
	j.CloseObject()
}

// AttachTelemetry adds the telemetry sections to a report and bumps its
// schema version. A no-op when both sections are nil, so reports from
// unconfigured runs keep schema version 1 and byte-identical output.
func (r *Report) AttachTelemetry(h *Histograms, s *SeriesMetrics) {
	if h == nil && s == nil {
		return
	}
	r.Histograms, r.Series = h, s
	r.SchemaVersion = SchemaVersionTelemetry
}

// CheckHistConservation verifies that the charge histograms account for
// every nanosecond the accounts do: for every node and every classified
// cause, the histogram's exact Sum equals the node account's entry, and
// its bucket counts total its sample count. Histograms must have been
// enabled before the run (a partial recording cannot conserve). accts
// is typically Engine.NodeAccounts().
func CheckHistConservation(e *sim.Engine, accts []sim.Account) error {
	if e == nil || !e.ChargeHistogramsEnabled() {
		return fmt.Errorf("metrics: charge histograms not enabled")
	}
	for n := range accts {
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			if c == sim.CauseUnattributed {
				continue // histograms record classified charges only
			}
			var sum, count, btotal int64
			if h := e.ChargeHist(n, c); h != nil {
				sum, count, btotal = h.Sum(), h.Count(), h.BucketTotal()
			}
			if want := int64(accts[n][c]); sum != want {
				return fmt.Errorf("metrics: node %d cause %v: histogram sum %d != account %d", n, c, sum, want)
			}
			if btotal != count {
				return fmt.Errorf("metrics: node %d cause %v: bucket total %d != count %d", n, c, btotal, count)
			}
		}
	}
	return nil
}

// CheckSeriesConservation verifies the cause series against the
// machine-wide account: for every classified cause, the series' exact
// total (retained windows plus spill) must equal the account entry.
// total is typically Engine.TotalAccount().
func CheckSeriesConservation(e *sim.Engine, total sim.Account) error {
	s := e.CauseSeries()
	if s == nil {
		return fmt.Errorf("metrics: cause series not enabled")
	}
	for c := sim.Cause(0); c < sim.NumCauses; c++ {
		if c == sim.CauseUnattributed {
			continue
		}
		if got, want := s.Total(int(c)), int64(total[c]); got != want {
			return fmt.Errorf("metrics: cause %v: series total %d != account %d", c, got, want)
		}
	}
	return nil
}
