package span

import (
	"fmt"
	"sort"

	"platinum/internal/sim"
)

// ReconciledCauses are the attribution causes whose Account totals a
// complete span recording covers exactly: a cost of one of these
// causes is charged only by recording the span whose Self carries it.
// CauseQueue is excluded deliberately — per-word memory-module
// queueing (mach.Access) sits below span granularity; only the
// fault-handler lock wait gets a QueueWait span. Compute, word-access
// latency, sync and kernel service time are likewise per-word or
// structural, not protocol operations.
var ReconciledCauses = []sim.Cause{
	sim.CauseFault,
	sim.CauseShootdown,
	sim.CauseBlockTransfer,
	sim.CauseSlowAck,
	sim.CauseRetry,
	sim.CausePmapWalk,
	sim.CausePTReplicate,
	sim.CauseBatchFlush,
}

// SelfTotals sums every span's Self by cause.
func SelfTotals(spans []Span) sim.Account {
	var a sim.Account
	for _, sp := range spans {
		a[sp.Cause] += sp.Self
	}
	return a
}

// Reconcile verifies the mutual-verification invariant between spans
// and cost attribution: for every reconciled cause, the per-cause sum
// of span Self times must equal the account total exactly. The account
// is typically Engine.TotalAccount(); the spans must be a complete
// retained recording of the same run (Recorder.Dropped() == 0).
func Reconcile(spans []Span, total sim.Account) error {
	sums := SelfTotals(spans)
	for _, c := range ReconciledCauses {
		if sums[c] != total[c] {
			return fmt.Errorf("span: cause %v does not reconcile: spans carry %v, account charged %v (diff %v)",
				c, sums[c], total[c], sums[c]-total[c])
		}
	}
	return nil
}

// ValidateNesting checks the structural invariants of a recording:
//
//   - on each track (simulation thread), spans either nest or are
//     disjoint — never partially overlapping, since a thread's virtual
//     time is sequential;
//   - every span with a recorded parent lies within that parent's
//     interval, and on the same track;
//   - every span has End >= Start.
//
// platinum-report -spans runs it before writing an export
// (TestValidateApps).
func ValidateNesting(spans []Span) error {
	byID := make(map[ID]Span, len(spans))
	for _, sp := range spans {
		if sp.End < sp.Start {
			return fmt.Errorf("span: %v id=%d has End %v before Start %v", sp.Kind, sp.ID, sp.End, sp.Start)
		}
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Parent == None {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			continue // parent fell out of a bounded ring; not an error
		}
		if sp.Start < p.Start || sp.End > p.End {
			return fmt.Errorf("span: %v id=%d [%v,%v] escapes parent %v id=%d [%v,%v]",
				sp.Kind, sp.ID, sp.Start, sp.End, p.Kind, p.ID, p.Start, p.End)
		}
		if sp.Track != p.Track {
			return fmt.Errorf("span: %v id=%d on track %d but parent %v id=%d on track %d",
				sp.Kind, sp.ID, sp.Track, p.Kind, p.ID, p.Track)
		}
	}
	// Per-track interval nesting: sweep in start order (longer span
	// first on ties so enclosing spans are seen before their children)
	// with a stack of open intervals.
	byTrack := make(map[int][]Span)
	for _, sp := range spans {
		byTrack[sp.Track] = append(byTrack[sp.Track], sp)
	}
	for trk, ts := range byTrack {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Start != ts[j].Start {
				return ts[i].Start < ts[j].Start
			}
			if ts[i].End != ts[j].End {
				return ts[i].End > ts[j].End
			}
			return ts[i].ID < ts[j].ID
		})
		var stack []Span
		for _, sp := range ts {
			for len(stack) > 0 && stack[len(stack)-1].End <= sp.Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && sp.End > stack[len(stack)-1].End {
				top := stack[len(stack)-1]
				return fmt.Errorf("span: track %d: %v id=%d [%v,%v] partially overlaps %v id=%d [%v,%v]",
					trk, sp.Kind, sp.ID, sp.Start, sp.End, top.Kind, top.ID, top.Start, top.End)
			}
			stack = append(stack, sp)
		}
	}
	return nil
}
