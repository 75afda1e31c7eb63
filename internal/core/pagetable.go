package core

import (
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Page-table placement and invalidation variants. The paper's baseline
// treats a Pmap walk as free (an ATC miss costs only the fixed
// ATCReload) and broadcasts every mapping change eagerly through the
// shootdown of §3.1. The modern literature questions both choices:
// Mitosis (PAPERS.md) shows page-table *placement* — walking a remote
// node's table on every TLB miss — dominates on big NUMA machines and
// fixes it by replicating tables per node, paying a write-through
// update on every mapping change; numaPTE shows eager TLB shootdowns
// can be deferred and coalesced per target until the translation is
// actually about to be used (or its frame reclaimed), amortizing the
// synchronization. PTConfig maps both onto the Pmap/ATC model so the
// simulator can ask whether PLATINUM's protocol holds up under modern
// page-table regimes; the pt-variants experiment (internal/exp) runs
// the comparison.
//
// The zero PTConfig is the paper's machine, bit-for-bit: no walk
// charges, no replica costs, eager shootdown. The byte-identity gates
// in internal/apps pin that.

// PTMode selects where page tables live — and therefore which node a
// processor's translation hardware walks on an ATC miss.
type PTMode uint8

const (
	// PTBaseline is the paper's model: walks are free, tables have no
	// home. The zero value.
	PTBaseline PTMode = iota

	// PTHome charges every ATC miss a walk of ptWalkWords word reads
	// against the address space's single page-table home node (chosen
	// round-robin per Cmap), distance- and tier-scaled on generalized
	// topologies. This is the "first touch somewhere" regime Mitosis
	// measures against.
	PTHome

	// PTReplicate is the Mitosis-style variant: every level-0 switch
	// domain (every node, when the machine has no switch levels) holds
	// a page-table replica, so walks go to the walker's own replica
	// home — but each mapping install pays a posted write-through of
	// ptWriteWords words to every other replica home, charged to
	// CausePTReplicate.
	PTReplicate
)

// PTConfig configures page-table placement and invalidation modeling.
// The zero value reproduces the paper exactly.
type PTConfig struct {
	// Mode selects where page tables live (see PTMode).
	Mode PTMode

	// BatchShootdown, when set, selects the numaPTE-style lazy variant:
	// shootdownEntryTracked applies the Pmap change immediately (the
	// protocol stays correct) but defers the target-side ATC
	// invalidation cost, coalescing per target until the target next
	// activates the space (msgApply per coalesced entry, charged to
	// CauseBatchFlush) or the initiator reaches a sync point that
	// frees frames (one interrupt per pending target regardless of how
	// many entries were coalesced — sync paid once per flush, not once
	// per entry). Composes with any Mode.
	BatchShootdown bool
}

// The page-table variants' sizes are fixed: a walk is two word reads (a
// two-level table), and an install under PTReplicate writes one word
// through to each remote replica.
const (
	ptWalkWords  = 2
	ptWriteWords = 1
)

// PTStats counts page-table variant activity (instrumentation).
type PTStats struct {
	// Walks is the number of charged page-table walks (ATC misses
	// under PTHome/PTReplicate).
	Walks int64
	// Deferred is the number of per-target invalidations the batched
	// variant deferred instead of interrupting eagerly.
	Deferred int64
	// FlushIPIs is the number of interrupts forced flushes sent.
	FlushIPIs int64
	// FlushApplies is the number of coalesced invalidations targets
	// applied on activation.
	FlushApplies int64
}

// PTStats returns the page-table variant counters.
func (s *System) PTStats() PTStats { return s.ptStats }

// batchOn reports whether the lazy/batched shootdown variant is active.
func (s *System) batchOn() bool { return s.cfg.PageTables.BatchShootdown }

// ptWalk charges one page-table walk for an ATC miss by proc in cm,
// starting at time at: ptWalkWords word reads against the node holding
// the table proc walks — the Cmap's home under PTHome, proc's replica
// home under PTReplicate. The walk is a real memory reference: it
// occupies the target module (AccessFree), so walk traffic contends
// with data traffic, and the returned delay includes any queueing —
// all of it charged to CausePmapWalk by the caller. Returns 0 in
// PTBaseline mode.
func (s *System) ptWalk(at sim.Time, proc int, cm *Cmap) sim.Time {
	var node int
	switch s.cfg.PageTables.Mode {
	case PTHome:
		node = cm.ptHome
	case PTReplicate:
		node = s.machine.ReplicaHomeOf(proc)
	default:
		return 0
	}
	s.ptStats.Walks++
	return s.machine.AccessFree(at, proc, node, ptWalkWords, false)
}

// ptReplicaInstall accumulates the write-through cost of one mapping
// install under PTReplicate: ptWriteWords posted word writes from
// proc to every replica home other than proc's own. The writes are
// fire-and-forget (latency only, no module occupancy — the initiator
// does not wait at the remote modules), summed per proc once and
// cached. The pending balance is drained by the fault handler into a
// single KindPTReplicate span charged to CausePTReplicate.
func (s *System) ptReplicaInstall(proc int) {
	if s.cfg.PageTables.Mode != PTReplicate {
		return
	}
	if s.ptRepCost == nil {
		homes := s.machine.ReplicaHomes()
		s.ptRepCost = make([]sim.Time, s.machine.Nodes())
		for p := range s.ptRepCost {
			own := s.machine.ReplicaHomeOf(p)
			for _, h := range homes {
				if int(h) == own {
					continue
				}
				s.ptRepCost[p] += s.machine.WordLatency(p, int(h), ptWriteWords, true)
			}
		}
	}
	s.ptRepPend += s.ptRepCost[proc]
}

// drainPTRep returns and clears the pending replica write-through cost.
func (s *System) drainPTRep() sim.Time {
	d := s.ptRepPend
	s.ptRepPend = 0
	return d
}

// batchDefer records one deferred invalidation for target proc under
// the batched variant (the Pmap/ATC change itself has already been
// applied by the caller — only the interrupt cost is deferred).
func (s *System) batchDefer(proc int) {
	if s.batchPend[proc] == 0 {
		s.batchProcs++
	}
	s.batchPend[proc]++
	s.ptStats.Deferred++
}

// flushBatch is the batched variant's sync point: before the initiator
// frees frames that deferred targets may still reference, every target
// with pending coalesced invalidations is interrupted — once per
// target, NOT once per coalesced entry. The first interrupt in the
// enclosing composite operation (prior counts targets it already
// interrupted) pays the full ShootdownSync; each further target only
// the incremental, distance-scaled dispatch — exactly the eager path's
// cost structure, which is what makes the eager-vs-batched comparison
// an apples-to-apples one. Costs land in sdTargets, tagged
// CauseBatchFlush, so the round's span tree carries them.
func (s *System) flushBatch(initiator, prior int) (delay sim.Time, interrupted int) {
	if s.batchProcs == 0 {
		return 0, 0
	}
	for proc := 0; proc < len(s.batchPend); proc++ {
		if s.batchPend[proc] == 0 {
			continue
		}
		s.batchPend[proc] = 0
		s.batchProcs--
		if proc == initiator {
			// The initiator's own ATC was fixed directly when the change
			// was applied; nothing to flush.
			continue
		}
		var step sim.Time
		if prior+interrupted == 0 {
			step = s.cfg.ShootdownSync
		} else {
			step = s.machine.InterruptDispatchTo(initiator, proc)
		}
		var ackd sim.Time
		if s.inj != nil {
			if a := s.inj.AckDelay(initiator, proc); a > 0 {
				delay += a
				ackd = a
			}
		}
		delay += step
		interrupted++
		s.ptStats.FlushIPIs++
		s.sdTargets = append(s.sdTargets, sdTarget{proc: proc, cost: step, ack: ackd, cause: sim.CauseBatchFlush})
		s.penalty[proc] += s.mcfg.InterruptHandle
	}
	return delay, interrupted
}

// batchActivate applies proc's coalesced deferred invalidations when
// it activates address space cm — the lazy half of the batched
// variant, mirroring the Cmap message queue's msgApply cost: one
// msgApply per coalesced entry, charged to the activating thread under
// CauseBatchFlush. The Pmap changes were applied at defer time, so
// this models the target-side ATC maintenance cost, not a state
// change. The pending count is global per target (deferred entries are
// not segregated by address space — the numaPTE model flushes the
// target's whole pending set on its next kernel entry), so the first
// activation after deferral pays for all of it.
func (s *System) batchActivate(t *sim.Thread, proc int) {
	n := s.batchPend[proc]
	if n == 0 || t == nil {
		return
	}
	s.batchPend[proc] = 0
	s.batchProcs--
	s.ptStats.FlushApplies += int64(n)
	cost := msgApply * sim.Time(n)
	now := t.Now()
	s.rec.Charge(t, span.Span{Kind: span.KindBatchFlush, Start: now, End: now + cost,
		Proc: proc, Page: -1, Cause: sim.CauseBatchFlush, Self: cost,
		NoteFmt: "%d coalesced", NoteArg0: n, NoteN: 1})
	t.Advance(cost)
}
