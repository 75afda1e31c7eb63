package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/hist"
	"platinum/internal/kernel"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
)

// The reference rendering of the report: encoding/json with a two-space
// indent over the schema's struct forms, the series windows as the
// name-keyed maps they were before WriteJSON streamed. It is what
// WriteJSON wrote then, kept here so the differential tests can check
// that the streaming writer produces the same bytes.

// refBreakdown is an account's JSON form: its total, then one field
// per cause.
type refBreakdown struct {
	TotalNs         int64 `json:"total_ns"`
	UnattributedNs  int64 `json:"unattributed_ns"`
	ComputeNs       int64 `json:"compute_ns"`
	LocalAccessNs   int64 `json:"local_access_ns"`
	RemoteAccessNs  int64 `json:"remote_access_ns"`
	BlockTransferNs int64 `json:"block_transfer_ns"`
	FaultNs         int64 `json:"fault_ns"`
	ShootdownNs     int64 `json:"shootdown_ns"`
	QueueNs         int64 `json:"queue_ns"`
	SyncNs          int64 `json:"sync_ns"`
	KernelNs        int64 `json:"kernel_ns"`
	RetryNs         int64 `json:"retry_ns"`
	SlowAckNs       int64 `json:"slow_ack_ns"`
	PmapWalkNs      int64 `json:"pmap_walk_ns,omitempty"`
	PTReplicateNs   int64 `json:"pt_replicate_ns,omitempty"`
	BatchFlushNs    int64 `json:"batch_flush_ns,omitempty"`
}

func refAccount(a sim.Account) refBreakdown {
	return refBreakdown{
		TotalNs:         int64(a.Total()),
		UnattributedNs:  int64(a[sim.CauseUnattributed]),
		ComputeNs:       int64(a[sim.CauseCompute]),
		LocalAccessNs:   int64(a[sim.CauseLocalAccess]),
		RemoteAccessNs:  int64(a[sim.CauseRemoteAccess]),
		BlockTransferNs: int64(a[sim.CauseBlockTransfer]),
		FaultNs:         int64(a[sim.CauseFault]),
		ShootdownNs:     int64(a[sim.CauseShootdown]),
		QueueNs:         int64(a[sim.CauseQueue]),
		SyncNs:          int64(a[sim.CauseSync]),
		KernelNs:        int64(a[sim.CauseKernel]),
		RetryNs:         int64(a[sim.CauseRetry]),
		SlowAckNs:       int64(a[sim.CauseSlowAck]),
		PmapWalkNs:      int64(a[sim.CausePmapWalk]),
		PTReplicateNs:   int64(a[sim.CausePTReplicate]),
		BatchFlushNs:    int64(a[sim.CauseBatchFlush]),
	}
}

type refNodeBreakdown struct {
	Node int `json:"node"`
	refBreakdown
}

// refPage is a core.PageReport's JSON form.
type refPage struct {
	ID            int64  `json:"id"`
	Label         string `json:"label"`
	State         string `json:"state"`
	Frozen        bool   `json:"frozen"`
	Copies        int    `json:"copies"`
	ReadFaults    int64  `json:"read_faults"`
	WriteFaults   int64  `json:"write_faults"`
	Replications  int64  `json:"replications"`
	Migrations    int64  `json:"migrations"`
	Invalidations int64  `json:"invalidations"`
	RemoteMaps    int64  `json:"remote_maps"`
	Freezes       int64  `json:"freezes"`
	Thaws         int64  `json:"thaws"`
	AllocFails    int64  `json:"alloc_fails"`
	HandlerWaitNs int64  `json:"handler_wait_ns"`
	FaultTimeNs   int64  `json:"fault_time_ns"`
}

type refBucket struct {
	LoNs  int64 `json:"lo_ns"`
	HiNs  int64 `json:"hi_ns"`
	Count int64 `json:"count"`
}

type refHist struct {
	Name    string      `json:"name"`
	Count   int64       `json:"count"`
	SumNs   int64       `json:"sum_ns"`
	MaxNs   int64       `json:"max_ns"`
	P50Ns   int64       `json:"p50_ns"`
	P90Ns   int64       `json:"p90_ns"`
	P99Ns   int64       `json:"p99_ns"`
	P999Ns  int64       `json:"p999_ns"`
	Buckets []refBucket `json:"buckets,omitempty"`
}

type refNodeHists struct {
	Node   int       `json:"node"`
	Causes []refHist `json:"causes"`
}

type refHistograms struct {
	Charges []refHist      `json:"charges"`
	Ops     []refHist      `json:"ops,omitempty"`
	Nodes   []refNodeHists `json:"nodes,omitempty"`
}

type refSeriesWindow struct {
	StartNs int64            `json:"start_ns"`
	TimeNs  map[string]int64 `json:"time_ns,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

type refSeries struct {
	WidthNs        int64             `json:"width_ns"`
	SpilledWindows int64             `json:"spilled_windows,omitempty"`
	Windows        []refSeriesWindow `json:"windows"`
}

type refReport struct {
	SchemaVersion int                `json:"schema_version"`
	App           string             `json:"app"`
	Policy        string             `json:"policy"`
	Procs         int                `json:"procs"`
	ElapsedNs     int64              `json:"elapsed_ns"`
	Shootdowns    int64              `json:"shootdowns"`
	Total         refBreakdown       `json:"total"`
	Nodes         []refNodeBreakdown `json:"nodes"`
	Pages         []refPage          `json:"pages"`
	Histograms    *refHistograms     `json:"histograms,omitempty"`
	Series        *refSeries         `json:"series,omitempty"`
}

// nonZero returns vals' non-zero entries keyed by name, or nil.
func nonZero(vals []int64, name func(int) string) map[string]int64 {
	var m map[string]int64
	for i, v := range vals {
		if v != 0 {
			if m == nil {
				m = make(map[string]int64)
			}
			m[name(i)] = v
		}
	}
	return m
}

// refHistogram is one histogram's JSON form, with its non-empty
// buckets if withBuckets is set.
func refHistogram(name string, h *hist.H, withBuckets bool) refHist {
	m := refHist{Name: name, Count: h.Count(), SumNs: h.Sum(), MaxNs: h.Max(),
		P50Ns: h.Quantile(0.50), P90Ns: h.Quantile(0.90), P99Ns: h.Quantile(0.99), P999Ns: h.Quantile(0.999)}
	if withBuckets {
		h.Each(func(lo, hi, count int64) {
			m.Buckets = append(m.Buckets, refBucket{LoNs: lo, HiNs: hi, Count: count})
		})
	}
	return m
}

// refHistSection reads the histograms section's sources: each cause's
// charges merged over the nodes, the recorder's op histograms, and
// each node's charges, leaving out empty histograms and uncharged
// nodes.
func refHistSection(h *Histograms) *refHistograms {
	out := &refHistograms{}
	nodes := h.e.ChargeHistNodes()
	for c := sim.Cause(0); c < sim.NumCauses; c++ {
		var merged hist.H
		for n := 0; n < nodes; n++ {
			merged.Merge(h.e.ChargeHist(n, c))
		}
		if !merged.Empty() {
			out.Charges = append(out.Charges, refHistogram(c.String(), &merged, true))
		}
	}
	if h.rec != nil {
		for _, k := range span.HistogramKinds {
			if oh := h.rec.OpHist(k); !oh.Empty() {
				out.Ops = append(out.Ops, refHistogram(k.String(), oh, true))
			}
		}
	}
	for n := 0; n < nodes; n++ {
		nh := refNodeHists{Node: n}
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			if ch := h.e.ChargeHist(n, c); !ch.Empty() {
				nh.Causes = append(nh.Causes, refHistogram(c.String(), ch, false))
			}
		}
		if nh.Causes != nil {
			out.Nodes = append(out.Nodes, nh)
		}
	}
	return out
}

// refSeriesSection reads the series section's sources: the windows
// from the later of their lowest retained windows to the later of
// their highest, leaving out windows where both are zero.
func refSeriesSection(s *SeriesMetrics) *refSeries {
	out := &refSeries{}
	lo, hi := int64(0), int64(-1)
	for _, src := range []*timeseries.Series{s.cause, s.counts} {
		if src != nil {
			out.WidthNs = src.Width()
			out.SpilledWindows = max(out.SpilledWindows, src.SpilledWindows())
			if !src.Empty() {
				lo, hi = max(lo, src.LoWindow()), max(hi, src.HiWindow())
			}
		}
	}
	column := func(src *timeseries.Series, w int64, n int, name func(int) string) map[string]int64 {
		vals := make([]int64, n)
		if src != nil {
			for i := range vals {
				vals[i] = src.At(w, i)
			}
		}
		return nonZero(vals, name)
	}
	for w := lo; w <= hi; w++ {
		win := refSeriesWindow{StartNs: w * out.WidthNs,
			TimeNs: column(s.cause, w, int(sim.NumCauses), causeName),
			Counts: column(s.counts, w, span.NumCounts, span.CountName)}
		if win.TimeNs != nil || win.Counts != nil {
			out.Windows = append(out.Windows, win)
		}
	}
	return out
}

func writeJSONReference(w io.Writer, r Report) error {
	ref := refReport{
		SchemaVersion: r.SchemaVersion, App: r.App, Policy: r.Policy, Procs: r.Procs,
		ElapsedNs: r.ElapsedNs, Shootdowns: r.Shootdowns, Total: refAccount(r.Total),
	}
	if r.Histograms != nil {
		ref.Histograms = refHistSection(r.Histograms)
	}
	if r.Series != nil {
		ref.Series = refSeriesSection(r.Series)
	}
	if r.Nodes != nil {
		ref.Nodes = []refNodeBreakdown{}
	}
	for i, a := range r.Nodes {
		ref.Nodes = append(ref.Nodes, refNodeBreakdown{Node: i, refBreakdown: refAccount(a)})
	}
	if r.Pages != nil {
		ref.Pages = []refPage{}
	}
	for _, p := range r.Pages {
		ref.Pages = append(ref.Pages, refPage{
			ID:            p.ID,
			Label:         p.Label,
			State:         p.State.String(),
			Frozen:        p.Frozen,
			Copies:        p.Copies,
			ReadFaults:    p.ReadFaults,
			WriteFaults:   p.WriteFaults,
			Replications:  p.Replications,
			Migrations:    p.Migrations,
			Invalidations: p.Invalidations,
			RemoteMaps:    p.RemoteMaps,
			Freezes:       p.Freezes,
			Thaws:         p.Thaws,
			AllocFails:    p.AllocFails,
			HandlerWaitNs: int64(p.HandlerWait),
			FaultTimeNs:   int64(p.FaultTime),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ref)
}

// hostileText is every kind of string encoding/json escapes, next to
// plain ASCII, non-ASCII text and the empty string.
var hostileText = []string{
	`say "hi"`,
	`back\slash`,
	"<b>&amp;</b>",
	"ctl \x00\x01\x08\x0c\x1f\x7f",
	"tab\there\nnewline\r",
	"bad \xff\xfe utf-8 \xe2\x80",
	"sep\u2028line\u2029para",
	"ünïcödé 日本語",
	"gauss-matrix[3]",
	"",
}

// hostileReport fills every field of a version 2 report: hostile
// strings in each string field, math.MinInt64 and math.MaxInt64 in the
// integers, every cause and every omitempty field nonzero, and the
// telemetry of hostileTelemetry.
func hostileReport() Report {
	var a sim.Account
	for c := range a {
		a[c] = sim.Time(c) + 1
	}
	a[sim.CauseUnattributed], a[sim.CauseCompute] = math.MinInt64, -1
	a[sim.CausePTReplicate], a[sim.CauseBatchFlush] = math.MinInt64, math.MaxInt64
	r := Report{
		SchemaVersion: SchemaVersion,
		App:           hostileText[0],
		Policy:        hostileText[2],
		Procs:         math.MaxInt64,
		ElapsedNs:     math.MinInt64,
		Shootdowns:    math.MaxInt64,
		Total:         a,
		Nodes:         []sim.Account{a, {}},
	}
	for i, label := range hostileText {
		r.Pages = append(r.Pages, core.PageReport{
			ID: int64(i) - 3, Label: label, State: core.State(i), Frozen: i%2 == 0, Copies: i,
			CpageStats: core.CpageStats{
				ReadFaults: math.MaxInt64, WriteFaults: math.MinInt64, Replications: 1,
				Migrations: 2, Invalidations: 3, RemoteMaps: 4, Freezes: 5, Thaws: 6,
				AllocFails: 7, HandlerWait: 8, FaultTime: sim.Time(i) << 40,
			},
		})
	}
	r.AttachTelemetry(hostileTelemetry())
	return r
}

// charges is what one thread bound to node charges to cause c.
type charges struct {
	node int
	c    sim.Cause
	d    []sim.Time
}

// chargedEngine returns an engine with charge histograms for nodes
// nodes, after one thread for each of threads has charged.
func chargedEngine(nodes int, threads ...charges) *sim.Engine {
	e := sim.NewEngine()
	e.EnableChargeHistograms(nodes)
	for _, ch := range threads {
		e.Spawn("charger", func(th *sim.Thread) {
			th.BindNode(ch.node)
			for _, d := range ch.d {
				th.Charge(ch.c, d)
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return e
}

// hostileTelemetry returns telemetry sections of real sources that
// carry every key the sections have:
//   - charges on nodes 0 and 2 of three, from 1 ns, an exact bucket, to
//     2⁶² ns, in the top octaves, so node 1 is left out;
//   - a retained fault and shootdown but no block transfer, so one op
//     is left out;
//   - a cause and a count series on 4-window rings that spilled six of
//     the ten windows they were given, holding math.MaxInt64 and
//     math.MinInt64, and listing windows with times only, counts only,
//     both, and neither (left out).
func hostileTelemetry() (*Histograms, *SeriesMetrics) {
	e := chargedEngine(3,
		charges{0, sim.CauseFault, []sim.Time{1, 7, 1 << 40}},
		charges{0, sim.CauseCompute, []sim.Time{1 << 62}},
		charges{2, sim.CauseBatchFlush, []sim.Time{3, 300}})
	rec := span.NewRecorder(0)
	rec.EnableRetain(0)
	rec.Record(span.Span{Kind: span.KindFault, Start: 100, End: 350})
	rec.Record(span.Span{Kind: span.KindShootdown, Start: 150, End: 250})
	rec.Record(span.Span{Kind: span.KindDirLookup, Start: 110, End: 120})
	const width = 1000
	cause := timeseries.New(width, int(sim.NumCauses), 4)
	counts := timeseries.New(width, span.NumCounts, 4)
	for w := range int64(10) {
		at := w * width
		if w != 7 && w != 9 {
			cause.Add(at, int(sim.CauseFault), math.MaxInt64)
			cause.Add(at, int(sim.CauseCompute), w-8)
			cause.Add(at, int(sim.CauseBatchFlush), math.MinInt64)
		}
		if w != 6 && w != 9 {
			counts.Add(at, span.CountThaw, w)
			counts.Add(at, span.CountFault, math.MinInt64)
		}
	}
	cause.Add(9*width, int(sim.CauseFault), 0)
	counts.Add(9*width, span.CountFault, 0)
	return BuildHistograms(e, rec), BuildSeries(cause, counts)
}

// observedReport is the version 2 report of the gauss-16p-observed
// benchmark workload: Fig. 1's 240x240 Gauss on 16 processors with
// 256-word pages and seed 1, every recording sink on, with
// platinum-report's default -top of 20 pages.
func observedReport(t *testing.T) Report {
	t.Helper()
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 256
	pl, err := apps.NewPlatinumPlatform(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	k := pl.K
	k.EnableSpans(0)
	k.EnableHistograms()
	k.EnableSeries(sim.Millisecond, 0)
	cfg := apps.DefaultGaussConfig(240, 16)
	cfg.Seed = 1
	r, err := apps.RunGaussPlatinum(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mr := BuildReport("gauss", cfg.Threads, r.Elapsed, k.NodeAccounts(), k.Report())
	mr.Pages = mr.Pages[:20]
	mr.AttachTelemetry(BuildHistograms(k.Engine(), k.Spans()), BuildSeries(k.CauseSeries(), k.Spans().CountSeries()))
	if mr.Histograms == nil || mr.Series == nil || mr.Series.hi < mr.Series.lo {
		t.Fatal("the observed run attached no histograms or series windows")
	}
	return mr
}

// TestWriteJSONMatchesReference checks the streaming report writer
// against encoding/json byte for byte.
func TestWriteJSONMatchesReference(t *testing.T) {
	// Telemetry sources that recorded nothing: charge histograms on for
	// two nodes, a recorder retaining no op, two empty series.
	idle := chargedEngine(2)
	noOps := span.NewRecorder(0)
	noOps.EnableRetain(0)
	noOps.Record(span.Span{Kind: span.KindDirLookup, Start: 1, End: 2})
	emptyCause, emptyCounts := timeseries.New(5, int(sim.NumCauses), 4), timeseries.New(5, span.NumCounts, 4)

	zero := hostileReport()
	zero.Total = sim.Account{}
	zero.Nodes[0] = sim.Account{}
	zero.Histograms = BuildHistograms(idle, noOps)
	zero.Series = BuildSeries(emptyCause, emptyCounts)

	nils := fixedReport()
	nils.Nodes, nils.Pages = nil, nil
	nils.AttachTelemetry(BuildHistograms(idle, nil), BuildSeries(nil, emptyCounts))

	empties := fixedReport()
	empties.Nodes, empties.Pages = []sim.Account{}, []core.PageReport{}
	empties.AttachTelemetry(BuildHistograms(idle, noOps), BuildSeries(emptyCause, nil))

	hostileHist, hostileSeries := hostileTelemetry()
	histOnly := fixedReport()
	histOnly.AttachTelemetry(hostileHist, nil)
	seriesOnly := fixedReport()
	seriesOnly.AttachTelemetry(nil, hostileSeries)
	causeOnly := fixedReport()
	causeOnly.AttachTelemetry(nil, BuildSeries(hostileSeries.cause, nil))

	cases := []struct {
		name string
		r    Report
	}{
		{"zero-config v1", fixedReport()},
		{"zero value", Report{}},
		{"hostile v2, every omitempty field set", hostileReport()},
		{"every omitempty field zero", zero},
		{"nil pages, charges and windows", nils},
		{"empty pages, charges and windows", empties},
		{"histograms only", histOnly},
		{"series only", seriesOnly},
		{"cause series only", causeOnly},
		{"gauss-16p-observed v2", observedReport(t)},
	}
	for _, tc := range cases {
		var got, want bytes.Buffer
		if err := WriteJSON(&got, tc.r); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := writeJSONReference(&want, tc.r); err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Errorf("%s: streamed report (%d bytes) differs from the reference (%d bytes) at byte %d:\ngot:  %q\nwant: %q",
				tc.name, len(g), len(w), i, g[max(0, i-200):min(len(g), i+200)], w[max(0, i-200):min(len(w), i+200)])
		}
	}
}

type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, io.ErrShortWrite
}

// TestWriteJSONStopsAtWriteError checks that the first write error is
// returned and that nothing is written after it.
func TestWriteJSONStopsAtWriteError(t *testing.T) {
	r := fixedReport()
	for i := 0; i < 2000; i++ { // enough pages to fill several chunks
		r.Pages = append(r.Pages, core.PageReport{ID: int64(i), Label: "page"})
	}
	var w failWriter
	if err := WriteJSON(&w, r); err != io.ErrShortWrite {
		t.Fatalf("error %v, want %v", err, io.ErrShortWrite)
	}
	if w.writes != 1 {
		t.Errorf("%d writes after the first failed, want none", w.writes-1)
	}
}
