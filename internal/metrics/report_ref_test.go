package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
	"platinum/internal/span"
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
	Histograms    *Histograms        `json:"histograms,omitempty"`
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

func writeJSONReference(w io.Writer, r Report) error {
	ref := refReport{
		SchemaVersion: r.SchemaVersion, App: r.App, Policy: r.Policy, Procs: r.Procs,
		ElapsedNs: r.ElapsedNs, Shootdowns: r.Shootdowns, Total: refAccount(r.Total),
		Histograms: r.Histograms,
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
	if s := r.Series; s != nil {
		ref.Series = &refSeries{WidthNs: s.WidthNs, SpilledWindows: s.SpilledWindows}
		if s.Windows != nil {
			ref.Series.Windows = []refSeriesWindow{}
		}
		for _, win := range s.Windows {
			ref.Series.Windows = append(ref.Series.Windows, refSeriesWindow{
				StartNs: win.StartNs,
				TimeNs:  nonZero(win.TimeNs[:], causeName),
				Counts:  nonZero(win.Counts[:], span.CountName),
			})
		}
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
// integers, every cause and every omitempty field nonzero, and windows
// with only times, only counts and both.
func hostileReport() Report {
	var a sim.Account
	for c := range a {
		a[c] = sim.Time(c) + 1
	}
	a[sim.CauseUnattributed], a[sim.CauseCompute] = math.MinInt64, -1
	a[sim.CausePTReplicate], a[sim.CauseBatchFlush] = math.MinInt64, math.MaxInt64
	r := Report{
		SchemaVersion: SchemaVersionTelemetry,
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
	h := HistogramMetrics{Name: hostileText[3], Count: 3, SumNs: math.MaxInt64, MaxNs: math.MinInt64,
		P50Ns: 1, P90Ns: 2, P99Ns: 3, P999Ns: 4,
		Buckets: []BucketMetrics{{LoNs: math.MinInt64, HiNs: math.MaxInt64, Count: 1}, {LoNs: 5, HiNs: 6, Count: 2}}}
	perNode := h
	perNode.Name, perNode.Buckets = hostileText[5], nil
	r.Histograms = &Histograms{
		Charges: []HistogramMetrics{h, perNode},
		Ops:     []HistogramMetrics{h},
		Nodes:   []NodeHistograms{{Node: 0, Causes: []HistogramMetrics{perNode}}, {Node: math.MaxInt64, Causes: []HistogramMetrics{}}},
	}
	s := &SeriesMetrics{WidthNs: math.MaxInt64, SpilledWindows: 3}
	for w := range 4 {
		sw := SeriesWindow{StartNs: int64(w) * 1000}
		if w != 1 {
			sw.TimeNs[sim.CauseFault], sw.TimeNs[sim.CauseCompute] = math.MaxInt64, int64(w)-2
			sw.TimeNs[sim.CauseBatchFlush] = math.MinInt64
		}
		if w != 0 {
			sw.Counts[span.CountThaw], sw.Counts[span.CountFault] = int64(w), math.MinInt64
		}
		s.Windows = append(s.Windows, sw)
	}
	s.Windows = append(s.Windows, SeriesWindow{StartNs: 9000}) // all zero: both objects left out
	r.Series = s
	return r
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
	if mr.Histograms == nil || mr.Series == nil || len(mr.Series.Windows) == 0 {
		t.Fatal("the observed run attached no histograms or series windows")
	}
	return mr
}

// TestWriteJSONMatchesReference checks the streaming report writer
// against encoding/json byte for byte.
func TestWriteJSONMatchesReference(t *testing.T) {
	zero := hostileReport()
	zero.Total = sim.Account{}
	zero.Nodes[0] = sim.Account{}
	zero.Histograms = &Histograms{Charges: []HistogramMetrics{{}}, Ops: []HistogramMetrics{}, Nodes: []NodeHistograms{}}
	zero.Histograms.Charges[0].Buckets = []BucketMetrics{}
	zero.Series = &SeriesMetrics{Windows: []SeriesWindow{{}}}

	nils := fixedReport()
	nils.Nodes, nils.Pages = nil, nil
	nils.AttachTelemetry(&Histograms{Nodes: []NodeHistograms{{Node: 2}}}, &SeriesMetrics{WidthNs: 5})

	empties := fixedReport()
	empties.Nodes, empties.Pages = []sim.Account{}, []core.PageReport{}
	empties.AttachTelemetry(&Histograms{Charges: []HistogramMetrics{}, Nodes: []NodeHistograms{{Node: 2, Causes: []HistogramMetrics{}}}},
		&SeriesMetrics{WidthNs: 5, Windows: []SeriesWindow{}})

	histOnly := fixedReport()
	histOnly.AttachTelemetry(&Histograms{}, nil)
	seriesOnly := fixedReport()
	seriesOnly.AttachTelemetry(nil, &SeriesMetrics{})

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
