// Package trace analyzes the protocol event streams recorded by the
// coherent memory system (core.EnableTrace) — the analysis half of §9's
// "instrumentation for performance monitoring, analysis, and
// visualization". It turns raw events into the shapes a programmer
// tuning a PLATINUM application needs: per-page histories, ping-pong
// detection (the pattern the freeze policy exists to stop), freeze/thaw
// cycles (pages the defrost daemon keeps rescuing), and per-node
// time-bucketed activity profiles (phase structure).
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"platinum/internal/core"
	"platinum/internal/sim"
)

// Summary aggregates an event stream by kind.
type Summary struct {
	Total   int
	Dropped int64
	ByKind  map[core.EventKind]int
}

// Summarize counts events by kind.
func Summarize(events []core.Event, dropped int64) Summary {
	s := Summary{Total: len(events), Dropped: dropped, ByKind: make(map[core.EventKind]int)}
	for _, ev := range events {
		s.ByKind[ev.Kind]++
	}
	return s
}

// WriteTo prints the summary.
func (s Summary) WriteTo(w io.Writer) (int64, error) {
	var n int64
	k, err := fmt.Fprintf(w, "protocol trace: %d events (%d dropped)\n", s.Total, s.Dropped)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, kind := range core.EventKinds() {
		if c := s.ByKind[kind]; c > 0 {
			k, err := fmt.Fprintf(w, "  %-12v %d\n", kind, c)
			n += int64(k)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// PageHistory is the event history of one coherent page.
type PageHistory struct {
	Cpage        int64
	Events       []core.Event
	Faults       int // read + write faults
	Moves        int // replications + migrations
	FreezeCycles int // freeze → thaw transitions completed
	PingPongRuns int // maximal runs of >= MinPingPong alternating-processor moves
}

// MinPingPong is the run length of alternating-processor data movements
// that counts as ping-ponging.
const MinPingPong = 3

// ByPage groups events into per-page histories, sorted by fault count
// descending (busiest first).
func ByPage(events []core.Event) []*PageHistory {
	byID := make(map[int64]*PageHistory)
	for _, ev := range events {
		h := byID[ev.Cpage]
		if h == nil {
			h = &PageHistory{Cpage: ev.Cpage}
			byID[ev.Cpage] = h
		}
		h.Events = append(h.Events, ev)
		switch ev.Kind {
		case core.EvReadFault, core.EvWriteFault:
			h.Faults++
		case core.EvReplication, core.EvMigration:
			h.Moves++
		default:
			// Other kinds contribute to the history but not the counters.
		}
	}
	out := make([]*PageHistory, 0, len(byID))
	for _, h := range byID {
		h.FreezeCycles = freezeCycles(h.Events)
		h.PingPongRuns = pingPongRuns(h.Events)
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Faults != out[j].Faults {
			return out[i].Faults > out[j].Faults
		}
		return out[i].Cpage < out[j].Cpage
	})
	return out
}

// freezeCycles counts completed freeze→thaw transitions.
func freezeCycles(events []core.Event) int {
	cycles := 0
	frozen := false
	for _, ev := range events {
		switch ev.Kind {
		case core.EvFreeze:
			frozen = true
		case core.EvThaw:
			if frozen {
				cycles++
				frozen = false
			}
		default:
			// Faults and moves do not affect the freeze state machine.
		}
	}
	return cycles
}

// pingPongRuns counts maximal runs of at least MinPingPong consecutive
// migrations by strictly alternating processors — the write-sharing
// interference signature the freeze policy detects via invalidation
// history. Replications are excluded: read fan-out to many processors
// is healthy caching, not interference.
func pingPongRuns(events []core.Event) int {
	runs := 0
	runLen := 0
	lastProc := -1
	flush := func() {
		if runLen >= MinPingPong {
			runs++
		}
		runLen = 0
		lastProc = -1
	}
	for _, ev := range events {
		switch ev.Kind {
		case core.EvMigration:
			if ev.Proc != lastProc {
				runLen++
				lastProc = ev.Proc
			} else {
				flush()
				runLen = 1
				lastProc = ev.Proc
			}
		case core.EvFreeze, core.EvThaw:
			flush()
		default:
			// Faults and replications neither extend nor break a run.
		}
	}
	flush()
	return runs
}

// NodeBucket is one (time slice, node) cell of a per-node activity
// timeline: the protocol events node Node generated during
// [Start, Start+width), counted per kind. ByKind is indexed by
// core.EventKind and has one entry per kind in core.EventKinds().
type NodeBucket struct {
	Start  sim.Time
	Node   int
	ByKind []int
}

// NodeBuckets slices the event stream into fixed-width time buckets
// per node, exposing which processors drive protocol activity in each
// phase (the per-node series behind the metrics timeline export).
// Cells with no events are omitted; the result is ordered by bucket
// start, then node. Events with no processor (Proc < 0) or a kind
// outside core.EventKinds() are ignored.
func NodeBuckets(events []core.Event, width sim.Time) []NodeBucket {
	if width <= 0 || len(events) == 0 {
		return nil
	}
	// Sort one key per counted event by cell, then count runs: every
	// cell's counters are a window of one array, sized once.
	type key struct {
		start sim.Time
		node  int
		kind  core.EventKind
	}
	nkinds := len(core.EventKinds())
	keys := make([]key, 0, len(events))
	for _, ev := range events {
		if ev.Proc >= 0 && int(ev.Kind) < nkinds {
			keys = append(keys, key{ev.Time / width * width, ev.Proc, ev.Kind})
		}
	}
	if len(keys) == 0 {
		return nil
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.node, b.node)
	})
	newCell := func(i int) bool {
		return i == 0 || keys[i].start != keys[i-1].start || keys[i].node != keys[i-1].node
	}
	cells := 0
	for i := range keys {
		if newCell(i) {
			cells++
		}
	}
	out := make([]NodeBucket, 0, cells)
	counts := make([]int, cells*nkinds)
	for i, k := range keys {
		if newCell(i) {
			c := len(out)
			out = append(out, NodeBucket{Start: k.start, Node: k.node, ByKind: counts[c*nkinds : (c+1)*nkinds : (c+1)*nkinds]})
		}
		out[len(out)-1].ByKind[k.kind]++
	}
	return out
}

// TopCost returns up to k pages from the kernel report ranked by total
// fault-resolution time, descending (ties by fault count, then id) —
// the "most expensive pages" list. Ranking by cost rather than count
// matters when a few faults are pathologically slow: a frozen page
// whose handler serializes contended faults rises to the top even if a
// healthy page faults more often.
func TopCost(r core.Report, k int) []core.PageReport {
	pages := append([]core.PageReport(nil), r.Pages...)
	sort.Slice(pages, func(i, j int) bool {
		if pages[i].FaultTime != pages[j].FaultTime {
			return pages[i].FaultTime > pages[j].FaultTime
		}
		fi, fj := pages[i].Faults(), pages[j].Faults()
		if fi != fj {
			return fi > fj
		}
		return pages[i].ID < pages[j].ID
	})
	if k > len(pages) {
		k = len(pages)
	}
	return pages[:k]
}
