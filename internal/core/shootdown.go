package core

import (
	"platinum/internal/procset"
	"platinum/internal/sim"
)

// The PLATINUM shootdown mechanism (§3.1). Because every processor has
// a private Pmap per address space, a mapping change must reach every
// processor whose reference mask says it holds a translation — and only
// those. Targets whose address space is currently active are interrupted
// (costing the initiator ShootdownSync for the first and
// InterruptDispatch for each additional one); inactive targets merely
// get a Cmap message queued, which they apply when they next activate
// the space. This is the key scalability difference from Mach's
// shootdown, which stalls every processor with the space active.

// shootdownEntryTracked applies a mapping change for one Cmap entry to
// every processor (other than initiator) whose translation matches the
// affected predicate. restrict downgrades translations to read-only;
// otherwise they are invalidated. prior is the number of targets
// already interrupted earlier in the same composite operation: the
// expensive synchronization is paid once per fault, and every further
// target costs only the incremental interrupt dispatch (§4's 7 µs). It
// returns the delay to charge the initiator, the number of processors
// interrupted, and whether any processor other than the initiator was
// affected (interrupted or queued) — the signal the replication
// policy's invalidation history records.
//
// The initiator's own translation, if affected, is fixed directly at no
// interrupt cost (it is executing the handler).
func (s *System) shootdownEntryTracked(e *CmapEntry, initiator int, restrict bool, prior int,
	affected func(proc int, pe pmapEntry) bool) (delay sim.Time, interrupted int, others bool) {

	cm := e.cmap
	if e.refMask.Empty() {
		return 0, 0, false
	}
	var queued procset.Set
	posted := false
	for proc := 0; proc < s.machine.Nodes(); proc++ {
		if !e.refMask.Has(proc) {
			continue
		}
		pe, ok := cm.translation(proc, e.vpn)
		if !ok || !affected(proc, pe) {
			continue
		}
		if proc == initiator {
			if restrict {
				cm.restrictTranslation(proc, e.vpn)
			} else {
				cm.dropTranslation(proc, e.vpn)
			}
			continue
		}
		if !posted {
			delay += s.cfg.ShootdownPost
			posted = true
		}
		if s.batchOn() {
			// numaPTE-style lazy variant: apply the Pmap/ATC change now
			// (the protocol's correctness does not wait) but defer the
			// target-side invalidation cost, coalescing per target until
			// it next activates a space (batchActivate) or the initiator
			// reaches a frame-freeing sync point (flushBatch). Only the
			// message post is paid here.
			if restrict {
				cm.restrictTranslation(proc, e.vpn)
			} else {
				cm.dropTranslation(proc, e.vpn)
			}
			s.batchDefer(proc)
			continue
		}
		if cm.Active(proc) {
			// Interrupt the target and apply the change now.
			delay += s.interrupt(initiator, proc, prior+interrupted == 0, sim.CauseShootdown)
			interrupted++
			if restrict {
				cm.restrictTranslation(proc, e.vpn)
			} else {
				cm.dropTranslation(proc, e.vpn)
			}
		} else {
			queued.Add(proc)
		}
	}
	cm.postMsg(e.vpn, restrict, queued)
	s.shootSeqs++
	return delay, interrupted, posted
}

// shootdownCpage applies a mapping change across every address space
// that maps cp (§3.1: "a change of mappings required by the data
// coherency protocol must affect every address space in which the Cpage
// is mapped"). It returns the combined initiator delay and interrupt
// count. When recordInval is set and another processor's mapping was
// actually changed, the Cpage's invalidation history is updated — the
// signal the replication policy uses to detect interference. The defrost
// daemon passes recordInval=false: a thaw is not interference.
func (s *System) shootdownCpage(cp *Cpage, initiator int, now sim.Time,
	restrict, recordInval bool, affected func(proc int, pe pmapEntry) bool) (delay sim.Time, interrupted int) {

	changed := false
	for _, e := range cp.mappers {
		d, n, others := s.shootdownEntryTracked(e, initiator, restrict, interrupted, affected)
		delay += d
		interrupted += n
		if others {
			changed = true
		}
	}
	if changed && recordInval {
		cp.lastInval = now
		s.event(now, EvInvalidation, initiator, cp)
	}
	return delay, interrupted
}

// interrupt prices one interrupted target for the initiator, for the
// eager shootdown and the batched variant's flush alike: ShootdownSync
// if it is the composite operation's first target, otherwise the
// incremental dispatch (distance-scaled on generalized topologies,
// exactly InterruptDispatch on the uniform machine), plus any injected
// slow acknowledgement. The target owes InterruptHandle, folded into
// its next access, and gets its entry in the round's span tree (see
// span.go) under cause, the ack carried as CauseSlowAck. It returns
// the initiator's delay.
func (s *System) interrupt(initiator, proc int, first bool, cause sim.Cause) sim.Time {
	step := s.cfg.ShootdownSync
	if !first {
		step = s.machine.InterruptDispatchTo(initiator, proc)
	}
	var ack sim.Time
	if s.inj != nil {
		ack = max(s.inj.AckDelay(initiator, proc), 0)
	}
	s.sdTargets = append(s.sdTargets, sdTarget{proc: proc, cost: step, ack: ack, cause: cause})
	s.penalty[proc] += s.mcfg.InterruptHandle
	return step + ack
}

// affectAll matches every translation.
func affectAll(int, pmapEntry) bool { return true }

// affectWriters matches translations granting write access.
func affectWriters(_ int, pe pmapEntry) bool { return pe.rights.Allows(Write) }
