package core

import (
	"platinum/internal/phys"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Touch resolves processor proc's access to virtual page vpn of the
// address space described by cm, for a read (write=false) or write
// (write=true). It returns the physical copy the access should use.
//
// The fast path — an address-translation-cache hit with sufficient
// rights — costs nothing beyond the memory access the caller will
// charge. An ATC miss that hits in the processor's private Pmap costs
// one ATC reload. Anything else is a coherent memory fault, handled by
// the Cpage fault handler (§3.3), whose (possibly multi-millisecond)
// cost is charged to t before Touch returns.
func (s *System) Touch(t *sim.Thread, proc int, cm *Cmap, vpn int64, write bool) (Copy, error) {
	return s.Resolve(t, proc, cm, vpn, write, nil)
}

// Resolve is Touch with a data operation: apply (if non-nil) is called
// with the resolved copy's page words *before* any virtual time is
// charged for the operation. This matters for correctness, not just
// accounting: the simulation engine may dispatch other threads during
// the charge, and a concurrent fault could migrate the page — copying
// its contents — in between. Applying the data operation atomically with
// the resolution guarantees the protocol's serialization (the Cpage
// handler lock) also serializes the data, exactly as in-flight accesses
// complete before an invalidation is acknowledged on real hardware.
func (s *System) Resolve(t *sim.Thread, proc int, cm *Cmap, vpn int64, write bool,
	apply func(words []uint32)) (Copy, error) {
	want := Read
	if write {
		want = Write
	}
	pen := s.chargePenalty(proc)
	// ATC.
	if pe, ok := s.atcs[proc].lookup(cm.id, vpn); ok && pe.rights.Allows(want) {
		if apply != nil {
			apply(s.mem.Module(pe.copy.Module).Words(pe.copy.Frame))
		}
		if pen > 0 {
			// Deferred cost of interrupts this processor fielded for
			// other processors' shootdowns.
			now := t.Now()
			s.rec.Record(span.Span{Kind: span.KindIRQPenalty, Start: now, End: now + pen,
				Proc: proc, Track: t.ID(), Page: -1, Cause: sim.CauseShootdown, Self: pen})
			t.Attribute(sim.CauseShootdown, pen)
			t.Advance(pen)
		}
		return pe.copy, nil
	}
	// The ATC miss walks the page table: free in the paper's baseline,
	// a real (charged, module-occupying) memory reference against the
	// node holding the table under the PTConfig placement modes.
	walk := s.ptWalk(t.Now()+pen, proc, cm)
	// Pmap (the ATC reload path).
	if pe, ok := cm.translation(proc, vpn); ok && pe.rights.Allows(want) {
		s.atcs[proc].install(cm.id, vpn, pe.copy, pe.rights)
		if apply != nil {
			apply(s.mem.Module(pe.copy.Module).Words(pe.copy.Frame))
		}
		now := t.Now()
		page := int64(-1)
		if e := cm.Lookup(vpn); e != nil {
			page = e.cp.id
		}
		if pen > 0 {
			s.rec.Record(span.Span{Kind: span.KindIRQPenalty, Start: now, End: now + pen,
				Proc: proc, Track: t.ID(), Page: -1, Cause: sim.CauseShootdown, Self: pen})
		}
		if walk > 0 {
			s.rec.Record(span.Span{Kind: span.KindPmapWalk, Start: now + pen, End: now + pen + walk,
				Proc: proc, Track: t.ID(), Page: page, Cause: sim.CausePmapWalk, Self: walk})
		}
		reload := s.mcfg.ATCReload
		s.rec.Record(span.Span{Kind: span.KindATCReload, Start: now + pen + walk, End: now + pen + walk + reload,
			Proc: proc, Track: t.ID(), Page: page, Cause: sim.CauseFault, Self: reload})
		t.Attribute(sim.CauseShootdown, pen)
		t.Attribute(sim.CausePmapWalk, walk)
		t.Attribute(sim.CauseFault, reload)
		t.Advance(pen + walk + reload)
		return pe.copy, nil
	}
	return s.fault(t, proc, cm, vpn, write, pen, walk, apply)
}

// fault is the coherent page fault handler (§3.3). All protocol state
// transitions (Fig. 4) happen here or in the defrost daemon. walk is
// the already-computed page-table walk delay of the triggering ATC
// miss (zero in the paper's baseline), folded into the composite
// charge under CausePmapWalk.
func (s *System) fault(t *sim.Thread, proc int, cm *Cmap, vpn int64, write bool, pen, walk sim.Time,
	apply func(words []uint32)) (Copy, error) {
	e := cm.Lookup(vpn)
	if e == nil {
		return Copy{}, &ErrUnmapped{Proc: proc, VPN: vpn}
	}
	want := Read
	if write {
		want = Write
	}
	if !e.rights.Allows(want) {
		return Copy{}, &ErrProtection{Proc: proc, VPN: vpn, Want: want, Grant: e.rights}
	}
	cp := e.cp
	now := t.Now()
	note := "read-fault"
	if write {
		note = "write-fault"
	}
	// Open the fault's span tree: children buffer in s.pending until the
	// handler commits (spanFlush) or fails (spanAbort).
	rootID := s.rec.Alloc()
	s.spanParent = rootID
	s.spanTrack = t.ID()
	if pen > 0 {
		s.spanChild(span.Span{Kind: span.KindIRQPenalty, Start: now, End: now + pen,
			Proc: proc, Page: cp.id, Cause: sim.CauseShootdown, Self: pen})
	}
	if walk > 0 {
		s.spanChild(span.Span{Kind: span.KindPmapWalk, Start: now + pen, End: now + pen + walk,
			Proc: proc, Page: cp.id, Cause: sim.CausePmapWalk, Self: walk})
	}
	cur := now + pen + walk + s.cfg.FaultBase
	s.spanChild(span.Span{Kind: span.KindDirLookup, Start: now + pen + walk, End: cur,
		Proc: proc, Page: cp.id, Cause: sim.CauseFault, Self: s.cfg.FaultBase})
	s.fc = faultCosts{shoot: pen, walk: walk}

	// Serialize on the Cpage: concurrent faults on the same page queue,
	// and the queueing time is the paper's per-Cpage contention measure.
	if cp.busyUntil > cur {
		cp.Stats.HandlerWait += cp.busyUntil - cur
		s.fc.queue += cp.busyUntil - cur
		s.spanChild(span.Span{Kind: span.KindQueueWait, Start: cur, End: cp.busyUntil,
			Proc: proc, Page: cp.id, Cause: sim.CauseQueue, Self: cp.busyUntil - cur})
		cur = cp.busyUntil
	}
	if cp.home != proc {
		cur += s.cfg.KernelRemotePenalty
	}

	var c Copy
	var err error
	var lockEnd sim.Time
	if write {
		cp.Stats.WriteFaults++
		cp.everWritten = true
		s.trace(now, EvWriteFault, proc, cp)
		c, cur, err = s.handleWrite(e, cp, proc, now, cur)
	} else {
		cp.Stats.ReadFaults++
		s.trace(now, EvReadFault, proc, cp)
		c, cur, lockEnd, err = s.handleRead(e, cp, proc, now, cur)
	}
	if err != nil {
		s.spanAbort(now, span.Span{ID: rootID, Kind: span.KindFault,
			Proc: proc, Track: t.ID(), Page: cp.id, Cause: sim.CauseFault,
			State: cp.state.String(), DirMask: cp.dirMask.Lo(), Note: note + ": " + err.Error()})
		return Copy{}, err
	}
	// The handler releases the Cpage lock before a replication's block
	// transfer (lockEnd < cur in that case): concurrent replications of
	// the same page then serialize at the source memory module — in
	// hardware — which is where §5.1 locates the observed pivot-row
	// serialization. All other transitions hold the lock to completion.
	if lockEnd == 0 || lockEnd > cur {
		lockEnd = cur
	}
	cp.busyUntil = lockEnd
	// Under PTReplicate, the handler's map installs accumulated posted
	// write-through updates to the other replica homes; they complete
	// after the lock is released (fire-and-forget, but the initiator's
	// fault is not over until they are issued).
	if rep := s.drainPTRep(); rep > 0 {
		s.fc.ptrep += rep
		s.spanChild(span.Span{Kind: span.KindPTReplicate, Start: cur, End: cur + rep,
			Proc: proc, Page: cp.id, Cause: sim.CausePTReplicate, Self: rep})
		cur += rep
	}
	if apply != nil {
		apply(s.mem.Module(c.Module).Words(c.Frame))
	}
	// Attribute the composite charge exactly: the classified components
	// (lock queueing, shootdown, block transfer, injected delays)
	// recorded in s.fc, and everything else — handler entry, lookups,
	// allocation, map installs — as fault-handler overhead. One Advance,
	// identical to the unattributed charge, keeps dispatch order
	// bit-for-bit the same.
	total := cur - now
	cp.Stats.FaultTime += total
	classified := s.fc.queue + s.fc.shoot + s.fc.xfer + s.fc.ack + s.fc.stall +
		s.fc.walk + s.fc.ptrep + s.fc.batch
	t.Attribute(sim.CauseQueue, s.fc.queue)
	t.Attribute(sim.CauseShootdown, s.fc.shoot)
	t.Attribute(sim.CauseBlockTransfer, s.fc.xfer)
	t.Attribute(sim.CauseSlowAck, s.fc.ack)
	t.Attribute(sim.CauseRetry, s.fc.stall)
	t.Attribute(sim.CausePmapWalk, s.fc.walk)
	t.Attribute(sim.CausePTReplicate, s.fc.ptrep)
	t.Attribute(sim.CauseBatchFlush, s.fc.batch)
	t.Attribute(sim.CauseFault, total-classified)
	// Root fault span: its Self is the fault-overhead time no child span
	// carries (handler remainder, e.g. the remote-kernel-data penalty),
	// so per-cause Self sums stay exactly equal to the Account totals.
	s.rec.Record(span.Span{ID: rootID, Kind: span.KindFault, Start: now, End: cur,
		Proc: proc, Track: t.ID(), Page: cp.id, Cause: sim.CauseFault,
		Self:  total - classified - s.fcSpanned,
		State: cp.state.String(), DirMask: cp.dirMask.Lo(), Note: note})
	s.spanFlush()
	t.Advance(total)
	return c, nil
}

// localIPTLookup finds the local copy through the inverted page table,
// charging the strictly local probe cost (§3.3 explains why the IPT is
// used instead of the directory's copy list). A directory that claims a
// local copy the IPT cannot find is an invariant violation.
func (s *System) localIPTLookup(cp *Cpage, proc int, cur sim.Time) (frame int, newCur sim.Time, err error) {
	fr, probes, ok := s.mem.Module(proc).Lookup(cp.id)
	if !ok {
		return phys.NoFrame, cur, invariantErr(cp, "directory claims copy on module %d but IPT lookup failed", proc)
	}
	d := sim.Time(probes) * s.mcfg.LocalRead
	if d > 0 {
		s.spanChild(span.Span{Kind: span.KindIPTLookup, Start: cur, End: cur + d,
			Proc: proc, Page: cp.id, Cause: sim.CauseFault, Self: d,
			NoteFmt: "%d probes", NoteArg0: probes, NoteN: 1})
	}
	return fr, cur + d, nil
}

// allocFrame allocates a frame for cp on module mod, charging the fixed
// allocation overhead. ok=false if the module is out of frames (or a
// fault injector failed the allocation); the failure is counted in the
// page's statistics so exhaustion-driven fallbacks are policy-visible.
func (s *System) allocFrame(cp *Cpage, mod int, cur sim.Time) (frame int, newCur sim.Time, ok bool) {
	if s.inj != nil && s.inj.FailAlloc(mod) {
		cp.Stats.AllocFails++
		return phys.NoFrame, cur, false
	}
	fr, _, ok := s.mem.Module(mod).Alloc(cp.id)
	if !ok {
		cp.Stats.AllocFails++
		return phys.NoFrame, cur, false
	}
	s.spanChild(span.Span{Kind: span.KindFrameAlloc, Start: cur, End: cur + s.cfg.FrameAlloc,
		Proc: mod, Page: cp.id, Cause: sim.CauseFault, Self: s.cfg.FrameAlloc})
	return fr, cur + s.cfg.FrameAlloc, true
}

// copyPage performs the hardware block transfer backing a replication or
// migration, moving both simulated time and real data. The delay
// (including queueing for the source and destination modules) is
// recorded as block-transfer cost in the fault decomposition; any
// injected stall is recorded separately so it lands on CauseRetry.
func (s *System) copyPage(cp *Cpage, src, dst Copy, cur sim.Time) sim.Time {
	words := s.mcfg.PageWords
	d := s.machine.BlockTransferAt(cur, src.Module, dst.Module, words)
	var stall sim.Time
	if s.inj != nil {
		stall = s.inj.TransferStall(src.Module, dst.Module)
	}
	s.fc.xfer += d
	s.fc.stall += stall
	s.spanChild(span.Span{Kind: span.KindBlockTransfer, Start: cur, End: cur + d,
		Proc: dst.Module, Page: cp.id, Cause: sim.CauseBlockTransfer, Self: d,
		NoteFmt: "module %d->%d", NoteArg0: src.Module, NoteArg1: dst.Module, NoteN: 2})
	if stall > 0 {
		s.spanChild(span.Span{Kind: span.KindStall, Start: cur + d, End: cur + d + stall,
			Proc: dst.Module, Page: cp.id, Cause: sim.CauseRetry, Self: stall})
	}
	copy(s.mem.Module(dst.Module).Words(dst.Frame), s.mem.Module(src.Module).Words(src.Frame))
	return cur + d + stall
}

// chooseSource picks the physical copy to replicate from, per the
// configured source-selection mode.
func (s *System) chooseSource(cp *Cpage) Copy {
	switch s.cfg.SourceSelection {
	case SourceLeastLoaded:
		best := cp.copies[0]
		bestUntil := s.machine.BusyUntil(best.Module)
		for _, c := range cp.copies[1:] {
			if until := s.machine.BusyUntil(c.Module); until < bestUntil {
				best, bestUntil = c, until
			}
		}
		return best
	default:
		return cp.copies[0]
	}
}

// freeCopy removes the copy on module mod from the directory and frees
// its frame, charging the remote free cost. Frame reclamation is part
// of the shootdown cost group: §4's 17 µs-per-extra-target figure is
// 7 µs interrupt dispatch plus this 10 µs frame free.
func (s *System) freeCopy(cp *Cpage, mod int, cur sim.Time) (sim.Time, error) {
	c, err := cp.removeCopy(mod)
	if err != nil {
		return cur, err
	}
	s.mem.Module(c.Module).Free(c.Frame)
	s.fc.shoot += s.cfg.FrameFree
	s.spanChild(span.Span{Kind: span.KindFrameFree, Start: cur, End: cur + s.cfg.FrameFree,
		Proc: mod, Page: cp.id, Cause: sim.CauseShootdown, Self: s.cfg.FrameFree})
	return cur + s.cfg.FrameFree, nil
}

// materialize zero-fills an Empty page, trying modules in
// mach.PlaceOrder: the local module first, then the nearest, faster
// tier breaking ties. On the uniform machine that is the local module,
// then index order.
func (s *System) materialize(cp *Cpage, vpn int64, proc int, cur sim.Time) (Copy, sim.Time, error) {
	for _, mod32 := range s.machine.PlaceOrder(proc) {
		mod := int(mod32)
		if fr, nc, ok := s.allocFrame(cp, mod, cur); ok {
			c := Copy{Module: mod, Frame: fr}
			if err := cp.addCopy(c); err != nil {
				s.mem.Module(mod).Free(fr)
				return Copy{}, cur, err
			}
			return c, nc, nil
		}
	}
	return Copy{}, cur, &ErrNoMemory{VPN: vpn}
}

// handleRead resolves a read fault (§3.3). lockEnd reports when the
// Cpage handler lock is released; it precedes the returned completion
// time only on the replication path, whose block transfer runs outside
// the lock (zero means "held to completion").
func (s *System) handleRead(e *CmapEntry, cp *Cpage, proc int, now, cur sim.Time) (Copy, sim.Time, sim.Time, error) {
	cm := e.cmap

	// A local physical copy may already exist (the Cpage can be shared
	// by multiple address spaces, or the translation may simply have
	// been evicted).
	if _, ok, err := cp.HasCopy(proc); err != nil {
		return Copy{}, cur, 0, err
	} else if ok {
		fr, cur, err := s.localIPTLookup(cp, proc, cur)
		if err != nil {
			return Copy{}, cur, 0, err
		}
		c := Copy{Module: proc, Frame: fr}
		rights := Read
		if cp.state == Modified && cp.writers.Has(proc) {
			rights = Read | Write
		}
		cm.installTranslation(proc, e, c, rights)
		s.spanMapUpdate(cp, proc, cur)
		return c, cur + s.cfg.MapInstall, 0, nil
	}

	if cp.state == Empty {
		c, cur, err := s.materialize(cp, e.vpn, proc, cur)
		if err != nil {
			return Copy{}, cur, 0, err
		}
		cp.state = Present1
		cm.installTranslation(proc, e, c, Read)
		s.spanMapUpdate(cp, proc, cur)
		return c, cur + s.cfg.MapInstall, 0, nil
	}

	// Copies exist, none local: replicate or map remotely.
	dec := s.cfg.Policy.Decide(cp, now, false)
	if dec.Cache {
		if fr, nc, ok := s.allocFrame(cp, proc, cur); ok {
			cur = nc
			if cp.state == Modified {
				// Restrict the write mappings to read-only before
				// copying (modified -> present1, Fig. 4). A restriction
				// is not recorded as invalidation history: it happens on
				// every read-miss replication of a written page, and
				// counting it would make any written page look
				// write-shared. Interference is recorded where mappings
				// are destroyed (migration and copy reclamation).
				s.roundBegin()
				d, _ := s.shootdownCpage(cp, proc, now, true, false, affectWriters)
				ack := s.drainInjAck()
				s.fc.shoot += d - ack
				s.fc.ack += ack
				s.roundRecord(cur, d, cp, proc, "restrict")
				cur += d
				cp.state = Present1
				cp.writers.Clear()
			}
			src := s.chooseSource(cp)
			dst := Copy{Module: proc, Frame: fr}
			// Directory updated under the lock; the transfer itself runs
			// after the lock is released (lockEnd) and serializes at the
			// source module.
			if err := cp.addCopy(dst); err != nil {
				s.mem.Module(proc).Free(fr)
				return Copy{}, cur, 0, err
			}
			cp.state = PresentPlus
			cp.Stats.Replications++
			s.trace(cur, EvReplication, proc, cp)
			if cp.frozen {
				cp.frozen = false
				cp.Stats.Thaws++
			}
			cm.installTranslation(proc, e, dst, Read)
			s.spanMapUpdate(cp, proc, cur)
			lockEnd := cur + s.cfg.MapInstall
			cur = s.copyPage(cp, src, dst, lockEnd)
			return dst, cur, lockEnd, nil
		}
		// No local frames: fall through to a remote mapping.
	}

	// Remote mapping. A frozen page grants the full rights the VM system
	// permits (§3.3), avoiding an immediate write fault; this is safe
	// only while a single copy exists. Freezing likewise requires a
	// single copy — a read fault on a multi-copy page that the policy
	// declines to replicate is mapped remotely but left unfrozen (the
	// PLATINUM policy only freezes after an invalidation, which implies
	// the modified single-copy state; other policies can reach this
	// path).
	src := s.chooseSource(cp)
	rights := Read
	if len(cp.copies) == 1 && e.rights.Allows(Write) && (dec.Freeze || cp.state == Modified) {
		rights = Read | Write
		cp.state = Modified
		cp.writers.Add(proc)
	}
	if dec.Freeze && len(cp.copies) == 1 {
		s.freeze(cp, now)
	}
	cp.Stats.RemoteMaps++
	s.trace(cur, EvRemoteMap, proc, cp)
	cm.installTranslation(proc, e, src, rights)
	s.spanMapUpdate(cp, proc, cur)
	return src, cur + s.cfg.MapInstall, 0, nil
}

// handleWrite resolves a write fault (§3.3).
func (s *System) handleWrite(e *CmapEntry, cp *Cpage, proc int, now, cur sim.Time) (Copy, sim.Time, error) {
	cm := e.cmap

	if cp.state == Empty {
		c, cur, err := s.materialize(cp, e.vpn, proc, cur)
		if err != nil {
			return Copy{}, cur, err
		}
		cp.state = Modified
		cp.writers.AssignOne(proc)
		cm.installTranslation(proc, e, c, Read|Write)
		s.spanMapUpdate(cp, proc, cur)
		return c, cur + s.cfg.MapInstall, nil
	}

	if fr, ok, err := cp.HasCopy(proc); err != nil {
		return Copy{}, cur, err
	} else if ok {
		// Local copy: invalidate every other copy (present+ -> modified
		// requires reclaiming remote copies; present1/modified -> just
		// upgrade, "requires neither" per §3.2).
		fr2, nc, err := s.localIPTLookup(cp, proc, cur)
		if err != nil {
			return Copy{}, cur, err
		}
		if fr2 != fr {
			return Copy{}, cur, invariantErr(cp, "IPT frame %d and directory frame %d disagree on module %d", fr2, fr, proc)
		}
		cur = nc
		local := Copy{Module: proc, Frame: fr}
		cur, err = s.reclaimOtherCopies(cp, proc, local, now, cur)
		if err != nil {
			return Copy{}, cur, err
		}
		cp.state = Modified
		cp.writers.Add(proc)
		cm.installTranslation(proc, e, local, Read|Write)
		s.spanMapUpdate(cp, proc, cur)
		return local, cur + s.cfg.MapInstall, nil
	}

	// No local copy.
	dec := s.cfg.Policy.Decide(cp, now, true)
	if dec.Cache {
		if fr, nc, ok := s.allocFrame(cp, proc, cur); ok {
			cur = nc
			// Migrate: every existing translation points at a copy that
			// is about to disappear, so invalidate them all.
			s.roundBegin()
			d, n := s.shootdownCpage(cp, proc, now, false, true, affectAll)
			if s.batchOn() {
				// Sync point: the copies' frames are about to be freed,
				// so the deferred invalidations must be flushed first.
				fd, _ := s.flushBatch(proc, n)
				d += fd
			}
			ack := s.drainInjAck()
			bat := s.drainBatchCost()
			s.fc.shoot += d - ack - bat
			s.fc.ack += ack
			s.fc.batch += bat
			s.roundRecord(cur, d, cp, proc, "migrate")
			cur += d
			src := s.chooseSource(cp)
			dst := Copy{Module: proc, Frame: fr}
			cur = s.copyPage(cp, src, dst, cur)
			for len(cp.copies) > 0 {
				var err error
				cur, err = s.freeCopy(cp, cp.copies[0].Module, cur)
				if err != nil {
					return Copy{}, cur, err
				}
			}
			if err := cp.addCopy(dst); err != nil {
				s.mem.Module(proc).Free(fr)
				return Copy{}, cur, err
			}
			cp.state = Modified
			cp.writers.AssignOne(proc)
			cp.Stats.Migrations++
			s.trace(cur, EvMigration, proc, cp)
			if cp.frozen {
				cp.frozen = false
				cp.Stats.Thaws++
			}
			cm.installTranslation(proc, e, dst, Read|Write)
			s.spanMapUpdate(cp, proc, cur)
			return dst, cur + s.cfg.MapInstall, nil
		}
	}

	// Remote write mapping: requires a single copy, so first reduce
	// present+ to one copy.
	keep := s.chooseSource(cp)
	var err error
	cur, err = s.reclaimOtherCopies(cp, proc, keep, now, cur)
	if err != nil {
		return Copy{}, cur, err
	}
	cp.state = Modified
	cp.writers.Add(proc)
	if dec.Freeze {
		s.freeze(cp, now)
	}
	cp.Stats.RemoteMaps++
	s.trace(cur, EvRemoteMap, proc, cp)
	cm.installTranslation(proc, e, keep, Read|Write)
	s.spanMapUpdate(cp, proc, cur)
	return keep, cur + s.cfg.MapInstall, nil
}

// reclaimOtherCopies invalidates every translation pointing at a copy of
// cp other than keep, then frees those copies. It is a single shootdown:
// the synchronization cost is paid once and each further target costs
// only the incremental interrupt dispatch, which together with the frame
// free reproduces §4's 17 µs-per-extra-processor measurement.
func (s *System) reclaimOtherCopies(cp *Cpage, initiator int, keep Copy, now, cur sim.Time) (sim.Time, error) {
	if len(cp.copies) <= 1 {
		return cur, nil
	}
	s.roundBegin()
	d, n := s.shootdownCpage(cp, initiator, now, false, true,
		func(_ int, pe pmapEntry) bool { return pe.copy.Module != keep.Module })
	if s.batchOn() {
		// Sync point: the other copies' frames are about to be freed.
		fd, _ := s.flushBatch(initiator, n)
		d += fd
	}
	ack := s.drainInjAck()
	bat := s.drainBatchCost()
	s.fc.shoot += d - ack - bat
	s.fc.ack += ack
	s.fc.batch += bat
	s.roundRecord(cur, d, cp, initiator, "reclaim")
	cur += d
	// freeCopy splices the freed copy out of cp.copies in place, so walk
	// by index without snapshotting: after a free the next copy slides
	// into slot i, preserving the original visiting order.
	for i := 0; i < len(cp.copies); {
		c := cp.copies[i]
		if c.Module == keep.Module {
			i++
			continue
		}
		var err error
		cur, err = s.freeCopy(cp, c.Module, cur)
		if err != nil {
			return cur, err
		}
	}
	return cur, nil
}
