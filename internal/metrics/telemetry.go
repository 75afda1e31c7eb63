package metrics

import (
	"fmt"
	"iter"
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

// Histograms is the report's "histograms" section: machine-wide
// per-cause charge distributions (every node's histogram for that
// cause merged), whole-operation distributions (full fault, shootdown
// round, block transfer) derived from the retained spans, and the
// charge distributions per node. It is a view of the engine's charge
// histograms and the recorder's retained spans: it reads live platform
// state when the report is written, so write the report before the
// platform's next Reset. Each distribution is written with its exact
// count, sum and max alongside log-bucketed percentiles (upper bucket
// bounds, so each quantile is exact to within the bucket's <=12.5%
// relative width and never exceeds the true maximum); the machine-wide
// ones also list their non-empty buckets. Empty distributions are
// omitted throughout, so the section's size tracks what actually ran.
type Histograms struct {
	e   *sim.Engine
	rec *span.Recorder // nil unless it retains spans
}

// BuildHistograms returns the histograms section of an engine with
// charge histograms enabled, with the op histograms when rec retains
// spans (kernel.EnableHistograms turns both on). Returns nil when
// charge histograms are off — the omitempty contract for unconfigured
// runs.
func BuildHistograms(e *sim.Engine, rec *span.Recorder) *Histograms {
	if e == nil || !e.ChargeHistogramsEnabled() {
		return nil
	}
	h := &Histograms{e: e}
	if rec != nil && rec.Retaining() {
		h.rec = rec
	}
	return h
}

// Charges yields each cause's name and machine-wide charge
// distribution, every node's merged into one scratch histogram that
// the next cause overwrites, in Cause order and skipping causes
// nothing was charged to.
func (h *Histograms) Charges() iter.Seq2[string, *hist.H] {
	merged := new(hist.H)
	return causes(func(c sim.Cause) *hist.H {
		merged.Reset()
		for n := range h.e.ChargeHistNodes() {
			merged.Merge(h.e.ChargeHist(n, c))
		}
		return merged
	})
}

// Ops yields each whole-operation distribution's kind name and
// histogram, built from the retained spans in span.HistogramKinds
// order, skipping empty ones; none when spans were not retained.
func (h *Histograms) Ops() iter.Seq2[string, *hist.H] {
	return func(yield func(string, *hist.H) bool) {
		if h.rec == nil {
			return
		}
		for _, k := range span.HistogramKinds {
			if oh := h.rec.OpHist(k); !oh.Empty() && !yield(k.String(), oh) {
				return
			}
		}
	}
}

// causes yields each cause's name and its histogram from of, in Cause
// order, skipping the empty ones.
func causes(of func(sim.Cause) *hist.H) iter.Seq2[string, *hist.H] {
	return func(yield func(string, *hist.H) bool) {
		for c := range sim.NumCauses {
			if h := of(c); !h.Empty() && !yield(c.String(), h) {
				return
			}
		}
	}
}

// SeriesMetrics is the report's "series" section: rate curves over
// simulated time in fixed-width windows, per-cause charged time from
// the engine's cause series and per-operation counts from the span
// recorder's count series. It is a view of both series that keeps
// only their width, how many windows they evicted and the window range
// it lists: it reads live platform state when the report is written,
// so write the report before the platform's next Reset.
type SeriesMetrics struct {
	cause, counts  *timeseries.Series // either may be nil
	width, spilled int64
	lo, hi         int64 // the listed windows, none when hi < lo
}

// BuildSeries returns the series section of the engine's per-cause
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
	s := &SeriesMetrics{cause: cause, counts: counts, hi: -1}
	for _, src := range [...]*timeseries.Series{cause, counts} {
		if src == nil {
			continue
		}
		if s.width == 0 {
			s.width = src.Width()
		} else if src.Width() != s.width {
			panic(fmt.Sprintf("metrics: series width mismatch: %d vs %d", s.width, src.Width()))
		}
		s.spilled = max(s.spilled, src.SpilledWindows())
		if !src.Empty() {
			s.lo, s.hi = max(s.lo, src.LoWindow()), max(s.hi, src.HiWindow())
		}
	}
	return s
}

// Width returns the window width in nanoseconds of simulated time.
func (s *SeriesMetrics) Width() int64 { return s.width }

// SpilledWindows counts the windows with data evicted from the series'
// retained rings: their contents are kept in the series' spill
// accumulators but not listed. Zero means the listing is complete.
func (s *SeriesMetrics) SpilledWindows() int64 { return s.spilled }

// Windows yields the index and start time of each listed window that
// holds data, in time order.
func (s *SeriesMetrics) Windows() iter.Seq2[int64, int64] {
	return func(yield func(int64, int64) bool) {
		for w := s.lo; w <= s.hi; w++ {
			if (held(s.cause, w, causesByName) || held(s.counts, w, countsByName)) && !yield(w, w*s.width) {
				return
			}
		}
	}
}

// Time returns the time charged to cause c in window w.
func (s *SeriesMetrics) Time(w int64, c sim.Cause) int64 { return s.cause.At(w, int(c)) }

// Count returns window w's count in column col (span.CountFault and
// the rest).
func (s *SeriesMetrics) Count(w int64, col int) int64 { return s.counts.At(w, col) }

// held reports whether any of src's columns cols is non-zero in window
// w.
func held(src *timeseries.Series, w int64, cols []int) bool {
	return slices.ContainsFunc(cols, func(col int) bool { return src.At(w, col) != 0 })
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
	bucketed := func(name string, m *hist.H) { writeHist(j, name, m, true) }
	charged := writeSeq(j, "charges", h.Charges(), bucketed)
	if !charged {
		j.Key("charges").Null()
	}
	writeSeq(j, "ops", h.Ops(), bucketed)
	if charged { // so some node was
		j.Key("nodes").OpenArray()
		for n := range h.e.ChargeHistNodes() {
			node := causes(func(c sim.Cause) *hist.H { return h.e.ChargeHist(n, c) })
			for range node { // once, if node n was charged
				j.OpenObject()
				j.Key("node").Int(int64(n))
				writeSeq(j, "causes", node, func(name string, m *hist.H) { writeHist(j, name, m, false) })
				j.CloseObject()
				break
			}
		}
		j.CloseArray()
	}
	j.CloseObject()
}

// writeSeq writes under key an array of what write writes for each
// pair seq yields, and nothing when it yields none. It reports whether
// it wrote.
func writeSeq[K, V any](j *span.JSONWriter, key string, seq iter.Seq2[K, V], write func(K, V)) bool {
	wrote := false
	for k, v := range seq {
		if !wrote {
			j.Key(key).OpenArray()
			wrote = true
		}
		write(k, v)
	}
	if wrote {
		j.CloseArray()
	}
	return wrote
}

// writeHist writes a non-empty histogram, listing its non-empty
// buckets when buckets is set.
func writeHist(j *span.JSONWriter, name string, h *hist.H, buckets bool) {
	j.OpenObject()
	j.Key("name").String(name)
	j.Key("count").Int(h.Count())
	j.Key("sum_ns").Int(h.Sum())
	j.Key("max_ns").Int(h.Max())
	j.Key("p50_ns").Int(h.Quantile(0.50))
	j.Key("p90_ns").Int(h.Quantile(0.90))
	j.Key("p99_ns").Int(h.Quantile(0.99))
	j.Key("p999_ns").Int(h.Quantile(0.999))
	if buckets {
		j.Key("buckets").OpenArray()
		h.Each(func(lo, hi, count int64) {
			j.OpenObject()
			j.Key("lo_ns").Int(lo)
			j.Key("hi_ns").Int(hi)
			j.Key("count").Int(count)
			j.CloseObject()
		})
		j.CloseArray()
	}
	j.CloseObject()
}

func writeSeries(j *span.JSONWriter, s *SeriesMetrics) {
	j.OpenObject()
	j.Key("width_ns").Int(s.width)
	if s.spilled != 0 {
		j.Key("spilled_windows").Int(s.spilled)
	}
	listed := writeSeq(j, "windows", s.Windows(), func(w, start int64) {
		j.OpenObject()
		j.Key("start_ns").Int(start)
		writeNamed(j, "time_ns", s.cause, w, causesByName, causeName)
		writeNamed(j, "counts", s.counts, w, countsByName, span.CountName)
		j.CloseObject()
	})
	if !listed {
		j.Key("windows").Null()
	}
	j.CloseObject()
}

// writeNamed writes src's non-zero columns in window w under key as an
// object keyed by name, in the name order order gives; nothing when
// all are zero.
func writeNamed(j *span.JSONWriter, key string, src *timeseries.Series, w int64, order []int, name func(int) string) {
	if !held(src, w, order) {
		return
	}
	j.Key(key).OpenObject()
	for _, col := range order {
		if v := src.At(w, col); v != 0 {
			j.Key(name(col)).Int(v)
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
