// Package metrics writes the simulator's cost-attribution data as
// stable, machine-readable JSON: the per-cause time internal/sim
// accumulates (sim.Account, one key per sim.Cause), the per-page
// statistics of internal/core's kernel report (core.PageReport, §4.2),
// the telemetry sections, and time-bucketed protocol timelines from
// internal/trace. The writers read those types themselves; this
// package keeps no copy of their fields. It is the structured
// counterpart of the human-readable tables — §9's "instrumentation for
// performance monitoring, analysis, and visualization" as JSON instead
// of text.
//
// Schema stability: every document carries SchemaVersion. Fields are
// only ever added, never renamed or removed, within a version; a
// golden-file test pins the exact encoding, and EXPERIMENTS.md
// documents every key. Durations are int64 nanoseconds of virtual time
// with an `_ns` suffix.
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

// Report is the complete structured run report: run identity, the
// machine-wide account, the per-node accounts, and the per-page
// records sorted most-expensive-first (by fault time, then fault count
// — the ranking that surfaces a frozen pivot page at the top of the
// list). WriteJSON renders it; EXPERIMENTS.md lists every key.
type Report struct {
	SchemaVersion int
	App           string
	Policy        string
	Procs         int
	ElapsedNs     int64
	Shootdowns    int64
	Total         sim.Account       // the sum of Nodes
	Nodes         []sim.Account     // indexed by node
	Pages         []core.PageReport // most expensive first

	// Telemetry sections (schema version 2): present only when the run
	// had histograms or time series enabled (AttachTelemetry), so
	// zero-config reports stay byte-identical to schema version 1.
	Histograms *Histograms
	Series     *SeriesMetrics
}

// BuildReport assembles a Report from an engine's per-node accounts and
// the core system's post-mortem report. Nodes is nodes itself, not a
// copy. Pages come out ranked by fault time descending (ties by fault
// count, then id).
func BuildReport(app string, procs int, elapsed sim.Time, nodes []sim.Account, cr core.Report) Report {
	r := Report{
		SchemaVersion: SchemaVersion,
		App:           app,
		Policy:        cr.Policy,
		Procs:         procs,
		ElapsedNs:     int64(elapsed),
		Shootdowns:    cr.Shootdowns,
		Nodes:         nodes,
		Pages:         trace.TopCost(cr, len(cr.Pages)),
	}
	for i := range nodes {
		r.Total.Add(&nodes[i])
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

// WriteJSON writes r as a JSON document with a two-space indent,
// followed by a newline. An account is written as total_ns, then one
// <cause>_ns key per sim.Cause in Cause order, with the page-table
// variant causes (CausePmapWalk on) left out when zero; each node's
// account is preceded by its index as node. A page is written from
// core.PageReport's own fields. A nil slice is written as null and an
// empty one as [], and the telemetry sections are left out when nil. A
// series window's charged time and counts are written as time_ns and
// counts objects keyed by cause and count name in name order, holding
// only the non-zero entries and left out when all are zero. The report
// is streamed through span.JSONWriter, with no intermediate values:
// the telemetry sections are read from their live sources as they are
// written. TestWriteJSONMatchesReference pins the bytes to
// encoding/json's rendering of the schema's reference structs.
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
	writeAccount(j, &r.Total)
	j.CloseObject()
	j.Key("nodes")
	node := 0
	writeArray(j, r.Nodes, func(j *span.JSONWriter, a *sim.Account) {
		j.OpenObject()
		j.Key("node").Int(int64(node))
		writeAccount(j, a)
		j.CloseObject()
		node++
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

// accountKeys holds each cause's report key, its name with an _ns
// suffix.
var accountKeys = func() (keys [sim.NumCauses]string) {
	for c := range keys {
		keys[c] = sim.Cause(c).String() + "_ns"
	}
	return keys
}()

// writeAccount writes a's total and its causes into the open object.
// The causes from CausePmapWalk on belong to the page-table variants
// (core.PTConfig) and are left out when zero, so reports from runs
// with the variants disabled stay byte-identical to reports from
// builds that predate them.
func writeAccount(j *span.JSONWriter, a *sim.Account) {
	j.Key("total_ns").Int(int64(a.Total()))
	for c, d := range a {
		if d != 0 || sim.Cause(c) < sim.CausePmapWalk {
			j.Key(accountKeys[c]).Int(int64(d))
		}
	}
}

func writePage(j *span.JSONWriter, p *core.PageReport) {
	j.OpenObject()
	j.Key("id").Int(p.ID)
	j.Key("label").String(p.Label)
	j.Key("state").String(p.State.String())
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
	j.Key("handler_wait_ns").Int(int64(p.HandlerWait))
	j.Key("fault_time_ns").Int(int64(p.FaultTime))
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
