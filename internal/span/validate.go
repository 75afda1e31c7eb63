package span

import (
	"cmp"
	"fmt"
	"slices"

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
	byID := make(map[ID]int, len(spans)) // span id -> index in spans
	for i := range spans {
		sp := &spans[i]
		if sp.End < sp.Start {
			return fmt.Errorf("span: %v id=%d has End %v before Start %v", sp.Kind, sp.ID, sp.End, sp.Start)
		}
		byID[sp.ID] = i
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Parent == None {
			continue
		}
		pi, ok := byID[sp.Parent]
		if !ok {
			continue // parent fell out of a bounded ring; not an error
		}
		p := &spans[pi]
		if sp.Start < p.Start || sp.End > p.End {
			return fmt.Errorf("span: %v id=%d [%v,%v] escapes parent %v id=%d [%v,%v]",
				sp.Kind, sp.ID, sp.Start, sp.End, p.Kind, p.ID, p.Start, p.End)
		}
		if sp.Track != p.Track {
			return fmt.Errorf("span: %v id=%d on track %d but parent %v id=%d on track %d",
				sp.Kind, sp.ID, sp.Track, p.Kind, p.ID, p.Track)
		}
	}
	// Per-track interval nesting: sweep the tracks in ascending order,
	// each in start order (longer span first on ties so enclosing spans
	// are seen before their children), with a stack of open intervals.
	// The order makes the reported violation the same on every call.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := &spans[i], &spans[j]
		return cmp.Or(cmp.Compare(a.Track, b.Track), cmp.Compare(a.Start, b.Start),
			cmp.Compare(b.End, a.End), cmp.Compare(a.ID, b.ID))
	})
	var stack []*Span
	for n, i := range order {
		sp := &spans[i]
		if n > 0 && spans[order[n-1]].Track != sp.Track {
			stack = stack[:0]
		}
		for len(stack) > 0 && stack[len(stack)-1].End <= sp.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 && sp.End > stack[len(stack)-1].End {
			top := stack[len(stack)-1]
			return fmt.Errorf("span: track %d: %v id=%d [%v,%v] partially overlaps %v id=%d [%v,%v]",
				sp.Track, sp.Kind, sp.ID, sp.Start, sp.End, top.Kind, top.ID, top.Start, top.End)
		}
		stack = append(stack, sp)
	}
	return nil
}
