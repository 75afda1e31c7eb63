// Package metrics defines the stable, machine-readable export schemas
// for the simulator's cost-attribution data: the per-cause time
// breakdowns accumulated by internal/sim, the per-page statistics from
// internal/core's kernel report (§4.2), and time-bucketed protocol
// timelines from internal/trace. It is the structured counterpart of
// the human-readable tables — §9's "instrumentation for performance
// monitoring, analysis, and visualization" as JSON instead of text.
//
// Schema stability: every document carries SchemaVersion. Fields are
// only ever added, never renamed or removed, within a version; a
// golden-file test pins the exact encoding. Durations are int64
// nanoseconds of virtual time with an `_ns` suffix.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"platinum/internal/core"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/trace"
)

// SchemaVersion identifies the JSON schema emitted by this package.
// Bump only on an incompatible change (rename/removal/semantic shift);
// additive fields do not bump it.
const SchemaVersion = 1

// Breakdown is virtual time decomposed by cause — the JSON form of a
// sim.Account. TotalNs is the exact sum of the per-cause fields; the
// conservation invariant (CheckConservation) guarantees it equals the
// total virtual time consumed, with UnattributedNs == 0.
type Breakdown struct {
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
	// The page-table variant causes (core.PTConfig) are omitted when
	// zero so reports from runs with the variants disabled stay
	// byte-identical to reports from builds that predate them.
	PmapWalkNs    int64 `json:"pmap_walk_ns,omitempty"`
	PTReplicateNs int64 `json:"pt_replicate_ns,omitempty"`
	BatchFlushNs  int64 `json:"batch_flush_ns,omitempty"`
}

// FromAccount converts a sim.Account into its JSON schema form.
func FromAccount(a sim.Account) Breakdown {
	return Breakdown{
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

// RemoteFraction returns the share of total time spent on remote word
// accesses — the cost coherent memory exists to avoid (§2). Zero when
// the breakdown is empty.
func (b Breakdown) RemoteFraction() float64 {
	if b.TotalNs == 0 {
		return 0
	}
	return float64(b.RemoteAccessNs) / float64(b.TotalNs)
}

// FaultFraction returns the share of total time spent in coherency
// overhead: fault handling plus shootdown (§3.3, §4). Zero when the
// breakdown is empty.
func (b Breakdown) FaultFraction() float64 {
	if b.TotalNs == 0 {
		return 0
	}
	return float64(b.FaultNs+b.ShootdownNs) / float64(b.TotalNs)
}

// NodeBreakdown is one node's (processor's) cost breakdown.
type NodeBreakdown struct {
	Node int `json:"node"`
	Breakdown
}

// PageMetrics is the JSON form of one coherent page's post-mortem
// record (core.PageReport): the §4.2 per-Cpage kernel report, extended
// with total fault-resolution time so pages can be ranked by cost, not
// just fault count.
type PageMetrics struct {
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

// FromPageReport converts one core.PageReport.
func FromPageReport(p core.PageReport) PageMetrics {
	return PageMetrics{
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
	}
}

// Report is the complete structured run report: run identity, the
// machine-wide cost breakdown, the per-node breakdowns, and the
// per-page records sorted most-expensive-first (by fault time, then
// fault count — the ranking that surfaces a frozen pivot page at the
// top of the list).
type Report struct {
	SchemaVersion int             `json:"schema_version"`
	App           string          `json:"app"`
	Policy        string          `json:"policy"`
	Procs         int             `json:"procs"`
	ElapsedNs     int64           `json:"elapsed_ns"`
	Shootdowns    int64           `json:"shootdowns"`
	Total         Breakdown       `json:"total"`
	Nodes         []NodeBreakdown `json:"nodes"`
	Pages         []PageMetrics   `json:"pages"`

	// Telemetry sections (schema version 2): present only when the run
	// had histograms or time series enabled (AttachTelemetry), so
	// zero-config reports stay byte-identical to schema version 1.
	Histograms *Histograms    `json:"histograms,omitempty"`
	Series     *SeriesMetrics `json:"series,omitempty"`
}

// BuildReport assembles a Report from an engine's per-node accounts and
// the core system's post-mortem report. Pages come out ranked by fault
// time descending (ties by fault count, then id).
func BuildReport(app string, procs int, elapsed sim.Time, nodes []sim.Account, cr core.Report) Report {
	r := Report{
		SchemaVersion: SchemaVersion,
		App:           app,
		Policy:        cr.Policy,
		Procs:         procs,
		ElapsedNs:     int64(elapsed),
		Shootdowns:    cr.Shootdowns,
		Nodes:         make([]NodeBreakdown, 0, len(nodes)),
	}
	var total sim.Account
	for i := range nodes {
		total.Add(&nodes[i])
		r.Nodes = append(r.Nodes, NodeBreakdown{Node: i, Breakdown: FromAccount(nodes[i])})
	}
	r.Total = FromAccount(total)
	if len(cr.Pages) > 0 {
		r.Pages = make([]PageMetrics, 0, len(cr.Pages))
	}
	for _, p := range trace.TopCost(cr, len(cr.Pages)) {
		r.Pages = append(r.Pages, FromPageReport(p))
	}
	return r
}

// CheckConservation verifies the attribution invariant on a set of
// accounts (typically Engine.NodeAccounts): every account's
// unattributed balance must be exactly zero — a positive balance means
// some code path charged time without classifying it, a negative slot
// means time was attributed twice. By construction each account then
// sums to exactly the virtual time its threads consumed.
func CheckConservation(accts []sim.Account) error {
	for n, a := range accts {
		if a[sim.CauseUnattributed] != 0 {
			return fmt.Errorf("metrics: node %d has %v unattributed time", n, a[sim.CauseUnattributed])
		}
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			if a[c] < 0 {
				return fmt.Errorf("metrics: node %d cause %v over-attributed (%v)", n, c, a[c])
			}
		}
	}
	return nil
}

// WriteJSON writes r as encoding/json renders it with a two-space
// indent, followed by a newline: the fields in declaration order under
// their json tag names (a NodeBreakdown's Breakdown fields inline), a
// nil slice as null and an empty one as [], and each omitempty field
// left out when it is zero or empty. A series window's TimeNs and
// Counts are written as objects keyed by cause and count name in name
// order, holding only the non-zero entries and left out when all are
// zero. The report is streamed through span.JSONWriter, with no
// intermediate values: TestWriteJSONMatchesReference pins the bytes to
// encoding/json's.
func WriteJSON(w io.Writer, r Report) error {
	j := span.NewJSONWriter(w, "  ")
	j.OpenObject()
	j.Key("schema_version").Int(int64(r.SchemaVersion))
	j.Key("app").String(r.App)
	j.Key("policy").String(r.Policy)
	j.Key("procs").Int(int64(r.Procs))
	j.Key("elapsed_ns").Int(r.ElapsedNs)
	j.Key("shootdowns").Int(r.Shootdowns)
	j.Key("total").OpenObject()
	writeBreakdown(j, &r.Total)
	j.CloseObject()
	j.Key("nodes")
	writeArray(j, r.Nodes, func(j *span.JSONWriter, n *NodeBreakdown) {
		j.OpenObject()
		j.Key("node").Int(int64(n.Node))
		writeBreakdown(j, &n.Breakdown)
		j.CloseObject()
	})
	j.Key("pages")
	writeArray(j, r.Pages, writePage)
	if r.Histograms != nil {
		j.Key("histograms")
		writeHistograms(j, r.Histograms)
	}
	if r.Series != nil {
		j.Key("series")
		writeSeries(j, r.Series)
	}
	j.CloseObject()
	return j.Close()
}

// writeArray writes xs as a JSON array, each element by write, or null
// when xs is nil.
func writeArray[T any](j *span.JSONWriter, xs []T, write func(*span.JSONWriter, *T)) {
	if xs == nil {
		j.Null()
		return
	}
	j.OpenArray()
	for i := range xs {
		write(j, &xs[i])
	}
	j.CloseArray()
}

// writeBreakdown writes b's fields into the open object.
func writeBreakdown(j *span.JSONWriter, b *Breakdown) {
	j.Key("total_ns").Int(b.TotalNs)
	j.Key("unattributed_ns").Int(b.UnattributedNs)
	j.Key("compute_ns").Int(b.ComputeNs)
	j.Key("local_access_ns").Int(b.LocalAccessNs)
	j.Key("remote_access_ns").Int(b.RemoteAccessNs)
	j.Key("block_transfer_ns").Int(b.BlockTransferNs)
	j.Key("fault_ns").Int(b.FaultNs)
	j.Key("shootdown_ns").Int(b.ShootdownNs)
	j.Key("queue_ns").Int(b.QueueNs)
	j.Key("sync_ns").Int(b.SyncNs)
	j.Key("kernel_ns").Int(b.KernelNs)
	j.Key("retry_ns").Int(b.RetryNs)
	j.Key("slow_ack_ns").Int(b.SlowAckNs)
	if b.PmapWalkNs != 0 {
		j.Key("pmap_walk_ns").Int(b.PmapWalkNs)
	}
	if b.PTReplicateNs != 0 {
		j.Key("pt_replicate_ns").Int(b.PTReplicateNs)
	}
	if b.BatchFlushNs != 0 {
		j.Key("batch_flush_ns").Int(b.BatchFlushNs)
	}
}

func writePage(j *span.JSONWriter, p *PageMetrics) {
	j.OpenObject()
	j.Key("id").Int(p.ID)
	j.Key("label").String(p.Label)
	j.Key("state").String(p.State)
	j.Key("frozen").Bool(p.Frozen)
	j.Key("copies").Int(int64(p.Copies))
	j.Key("read_faults").Int(p.ReadFaults)
	j.Key("write_faults").Int(p.WriteFaults)
	j.Key("replications").Int(p.Replications)
	j.Key("migrations").Int(p.Migrations)
	j.Key("invalidations").Int(p.Invalidations)
	j.Key("remote_maps").Int(p.RemoteMaps)
	j.Key("freezes").Int(p.Freezes)
	j.Key("thaws").Int(p.Thaws)
	j.Key("alloc_fails").Int(p.AllocFails)
	j.Key("handler_wait_ns").Int(p.HandlerWaitNs)
	j.Key("fault_time_ns").Int(p.FaultTimeNs)
	j.CloseObject()
}

// WriteTimelineJSONL writes the trace's per-node time-bucketed series
// as JSON Lines, ordered by bucket start then node. Each line is one
// time slice of one node's protocol activity:
//
//	{"start_ns":0,"width_ns":1000000,"node":0,"events":{"read-fault":3,"replication":1}}
//
// events counts the node's events of each kind during
// [start_ns, start_ns+width_ns), keyed by core.EventKind name in name
// order, with zero counts left out. Empty (node, bucket) pairs are
// omitted, so the stream size tracks activity, not elapsed time.
func WriteTimelineJSONL(w io.Writer, events []core.Event, width sim.Time) error {
	kinds := core.EventKinds()
	slices.SortFunc(kinds, func(a, b core.EventKind) int { return strings.Compare(a.String(), b.String()) })
	var line []byte
	for _, nb := range trace.NodeBuckets(events, width) {
		line = append(line[:0], `{"start_ns":`...)
		line = strconv.AppendInt(line, int64(nb.Start), 10)
		line = append(line, `,"width_ns":`...)
		line = strconv.AppendInt(line, int64(width), 10)
		line = append(line, `,"node":`...)
		line = strconv.AppendInt(line, int64(nb.Node), 10)
		line = append(line, `,"events":{`...)
		sep := ""
		for _, k := range kinds {
			if c := nb.ByKind[k]; c > 0 {
				line = append(line, sep...)
				line = append(line, '"') // plain ASCII names: quoted as they are
				line = append(line, k.String()...)
				line = append(line, '"', ':')
				line = strconv.AppendInt(line, int64(c), 10)
				sep = ","
			}
		}
		line = append(line, "}}\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
