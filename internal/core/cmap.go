package core

import (
	"fmt"

	"platinum/internal/procset"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// pmapEntry is one virtual-to-physical translation in a processor's
// private Pmap (a cache of the valid translations, §3.1).
type pmapEntry struct {
	copy   Copy
	rights Rights
}

// cmapMsg describes a mapping change that target processors must apply
// to their private Pmaps (§3.1). restrict downgrades the translation to
// read-only; otherwise the translation is invalidated.
type cmapMsg struct {
	vpn      int64
	restrict bool
	targets  procset.Set // processors that still have to apply the change
}

// CmapEntry maps one virtual page of an address space to a coherent
// page. It is the analogue of a page table entry (§2.3): coherent page
// pointer, access rights, and the reference mask of processors holding a
// virtual-to-physical translation.
type CmapEntry struct {
	cmap    *Cmap
	vpn     int64
	cp      *Cpage
	rights  Rights
	refMask procset.Set
}

// Cpage returns the coherent page the entry maps.
func (e *CmapEntry) Cpage() *Cpage { return e.cp }

// Rights returns the access rights granted by the virtual memory system.
func (e *CmapEntry) Rights() Rights { return e.rights }

// Cmap caches the composition of an address space's virtual-to-coherent
// mappings, and holds the per-processor private Pmaps plus the queue of
// Cmap messages used by the shootdown protocol (§2.3, §3.1).
type Cmap struct {
	id      int
	sys     *System
	entries map[int64]*CmapEntry
	pmaps   []map[int64]pmapEntry
	actives []int // activation refcount per processor
	msgs    []cmapMsg
}

// NewCmap creates the coherent-map state for a new address space.
// Cmaps recycled by Reset — with their maps already built and cleared —
// are reused before new ones are allocated.
func (s *System) NewCmap() *Cmap {
	var cm *Cmap
	if n := len(s.cmapPool); n > 0 {
		cm = s.cmapPool[n-1]
		s.cmapPool[n-1] = nil
		s.cmapPool = s.cmapPool[:n-1]
	} else {
		n := s.machine.Nodes()
		cm = &Cmap{
			sys:     s,
			entries: make(map[int64]*CmapEntry),
			pmaps:   make([]map[int64]pmapEntry, n),
			actives: make([]int, n),
		}
		for i := range cm.pmaps {
			cm.pmaps[i] = make(map[int64]pmapEntry)
		}
	}
	cm.id = len(s.cmaps)
	s.cmaps = append(s.cmaps, cm)
	return cm
}

// recycle returns a pooled Cmap to its freshly-constructed state,
// keeping every map and slice it has grown. Its entries go back to the
// system's entry pool.
func (cm *Cmap) recycle(s *System) {
	for vpn, e := range cm.entries {
		rm := e.refMask
		rm.Clear()
		*e = CmapEntry{refMask: rm} // keep the reference set's overflow words
		s.entryPool = append(s.entryPool, e)
		delete(cm.entries, vpn)
	}
	for i := range cm.pmaps {
		clear(cm.pmaps[i])
	}
	for i := range cm.actives {
		cm.actives[i] = 0
	}
	cm.msgs = cm.msgs[:0]
}

// Enter binds virtual page vpn to coherent page cp with the given
// rights. It is the virtual memory layer's interface for populating the
// Cmap.
func (cm *Cmap) Enter(vpn int64, cp *Cpage, rights Rights) (*CmapEntry, error) {
	if _, dup := cm.entries[vpn]; dup {
		return nil, fmt.Errorf("core: vpn %d already mapped in cmap %d", vpn, cm.id)
	}
	if rights&Read == 0 {
		return nil, fmt.Errorf("core: mapping vpn %d without read rights", vpn)
	}
	s := cm.sys
	var e *CmapEntry
	if n := len(s.entryPool); n > 0 {
		e = s.entryPool[n-1]
		s.entryPool[n-1] = nil
		s.entryPool = s.entryPool[:n-1]
	} else {
		e = &CmapEntry{}
	}
	*e = CmapEntry{cmap: cm, vpn: vpn, cp: cp, rights: rights, refMask: e.refMask}
	cm.entries[vpn] = e
	cp.mappers = append(cp.mappers, e)
	return e, nil
}

// Lookup returns the entry mapping vpn, or nil.
func (cm *Cmap) Lookup(vpn int64) *CmapEntry { return cm.entries[vpn] }

// DiscardUnused removes the entry for vpn, which must never have been
// used (no processor holds a translation). It exists so the virtual
// memory layer can roll back a partially constructed binding without a
// shootdown; use Remove for live mappings.
func (cm *Cmap) DiscardUnused(vpn int64) error {
	e := cm.entries[vpn]
	if e == nil {
		return fmt.Errorf("core: vpn %d not mapped in cmap %d", vpn, cm.id)
	}
	if !e.refMask.Empty() {
		return fmt.Errorf("core: vpn %d has live translations, cannot discard", vpn)
	}
	for i, m := range e.cp.mappers {
		if m == e {
			e.cp.mappers = append(e.cp.mappers[:i], e.cp.mappers[i+1:]...)
			break
		}
	}
	delete(cm.entries, vpn)
	return nil
}

// Remove unbinds vpn, invalidating every processor's translation for it.
// The caller is a kernel thread; shootdown costs are charged to it.
func (cm *Cmap) Remove(t *sim.Thread, proc int, vpn int64) error {
	t.Sync()
	e := cm.entries[vpn]
	if e == nil {
		return fmt.Errorf("core: vpn %d not mapped in cmap %d", vpn, cm.id)
	}
	now := t.Now()
	s := cm.sys
	s.spanTrack = t.ID()
	s.roundBegin()
	d, _, _ := s.shootdownEntryTracked(e, proc, false, 0, affectAll)
	// Drop our own translation too.
	cm.dropTranslation(proc, vpn)
	// Unlink from the Cpage's mapper list.
	for i, m := range e.cp.mappers {
		if m == e {
			e.cp.mappers = append(e.cp.mappers[:i], e.cp.mappers[i+1:]...)
			break
		}
	}
	delete(cm.entries, vpn)
	s.roundRecord(now, d, e.cp, proc, "unmap")
	s.spanFlush(t)
	t.Advance(d)
	return nil
}

// msgApply is the cost for a processor to apply one queued Cmap message
// when it activates an address space.
const msgApply = 2 * sim.Microsecond

// Activate marks the address space active on processor proc and applies
// any queued Cmap messages targeting proc (§3.1: a processor applies
// pending changes before running any thread in the address space).
// Activation nests; matching Deactivate calls are required. A nil t
// activates at setup time, outside the simulation.
func (cm *Cmap) Activate(t *sim.Thread, proc int) {
	if t != nil {
		t.Sync()
	}
	cm.actives[proc]++
	if cm.actives[proc] > 1 {
		return
	}
	var cost sim.Time
	out := cm.msgs[:0]
	for _, m := range cm.msgs {
		if m.targets.Has(proc) {
			cm.applyMsg(proc, m)
			m.targets.Del(proc)
			cost += msgApply
		}
		if !m.targets.Empty() {
			out = append(out, m)
		}
	}
	cm.msgs = out
	if cost > 0 && t != nil {
		// Applying queued shootdown messages on activation is the lazy
		// half of the shootdown protocol's cost.
		now := t.Now()
		cm.sys.rec.Charge(t, span.Span{Kind: span.KindMsgApply, Start: now, End: now + cost,
			Proc: proc, Page: -1, Cause: sim.CauseShootdown, Self: cost})
		t.Advance(cost)
	}
	if cm.sys.batchOn() {
		// The batched variant's lazy half: apply proc's coalesced
		// deferred invalidations (across all spaces) before running.
		cm.sys.batchActivate(t, proc)
	}
}

// Deactivate undoes one Activate on proc. Deactivating a space that is
// not active on proc is an activation-refcount invariant violation and
// is returned as an error (the panic it used to be would kill a stress
// harness before it could dump a reproducer).
func (cm *Cmap) Deactivate(proc int) error {
	if cm.actives[proc] == 0 {
		return fmt.Errorf("core: Deactivate of inactive cmap %d on proc %d", cm.id, proc)
	}
	cm.actives[proc]--
	return nil
}

// Active reports whether the space is active on proc.
func (cm *Cmap) Active(proc int) bool { return cm.actives[proc] > 0 }

// applyMsg applies one Cmap message to proc's Pmap and ATC.
func (cm *Cmap) applyMsg(proc int, m cmapMsg) {
	if m.restrict {
		cm.restrictTranslation(proc, m.vpn)
	} else {
		cm.dropTranslation(proc, m.vpn)
	}
}

// installTranslation writes a translation into proc's Pmap and ATC and
// sets the reference-mask bit.
func (cm *Cmap) installTranslation(proc int, e *CmapEntry, c Copy, rights Rights) {
	cm.pmaps[proc][e.vpn] = pmapEntry{copy: c, rights: rights}
	e.refMask.Add(proc)
	cm.sys.atcs[proc].install(cm.id, e.vpn, c, rights)
	// Under PTReplicate the new entry is written through to every other
	// replica home; the fault handler drains the accumulated cost.
	cm.sys.ptReplicaInstall(proc)
}

// dropTranslation removes proc's translation for vpn, if any.
func (cm *Cmap) dropTranslation(proc int, vpn int64) {
	if _, ok := cm.pmaps[proc][vpn]; !ok {
		return
	}
	delete(cm.pmaps[proc], vpn)
	if e := cm.entries[vpn]; e != nil {
		e.refMask.Del(proc)
	}
	cm.sys.atcs[proc].invalidate(cm.id, vpn)
}

// restrictTranslation downgrades proc's translation for vpn to read-only.
func (cm *Cmap) restrictTranslation(proc int, vpn int64) {
	pe, ok := cm.pmaps[proc][vpn]
	if !ok {
		return
	}
	pe.rights = Read
	cm.pmaps[proc][vpn] = pe
	cm.sys.atcs[proc].restrict(cm.id, vpn)
}

// translation returns proc's current Pmap translation for vpn.
func (cm *Cmap) translation(proc int, vpn int64) (pmapEntry, bool) {
	pe, ok := cm.pmaps[proc][vpn]
	return pe, ok
}

// postMsg queues a Cmap message for the given (inactive) targets. The
// message takes ownership of the target set (callers build it fresh per
// shootdown).
func (cm *Cmap) postMsg(vpn int64, restrict bool, targets procset.Set) {
	if targets.Empty() {
		return
	}
	cm.msgs = append(cm.msgs, cmapMsg{vpn: vpn, restrict: restrict, targets: targets})
}
