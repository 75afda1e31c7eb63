package core

import (
	"platinum/internal/sim"
	"platinum/internal/span"
)

// The defrost daemon (§4.2). The coherency protocol is fault-driven:
// once every sharer of a frozen page has a remote mapping, no further
// faults occur and the page would stay frozen forever even after the
// access pattern changes. Every DefrostPeriod (t2, default 1 s) the
// daemon invalidates all mappings to frozen pages, so subsequent
// accesses fault again and the policy gets a fresh chance to replicate
// or migrate.

// DefrostSweep thaws every frozen page: all mappings are invalidated
// (without recording invalidation history — a thaw is not interference),
// the page leaves the frozen list, and its single copy remains so the
// next fault decides placement. The shootdown costs are charged to the
// calling thread, which runs on processor proc. It returns the number of
// pages thawed.
func (s *System) DefrostSweep(t *sim.Thread, proc int) int {
	if len(s.frozen) == 0 {
		return 0
	}
	now := t.Now()
	sweepID := s.rec.Alloc()
	s.spanParent = sweepID
	s.spanTrack = t.ID()
	var delay sim.Time
	thawed := 0
	// Detach the list but keep its backing array: nothing re-enlists
	// during the sweep, so truncating in place is safe and the array is
	// reused by the next freeze.
	list := s.frozen
	s.frozen = s.frozen[:0]
	for _, cp := range list {
		cp.enlisted = false
		if !cp.frozen {
			continue // already thawed by a fault (thaw-on-fault policy)
		}
		s.roundBegin()
		d, _ := s.shootdownCpage(cp, proc, now, false, false, affectAll)
		s.spanThaw(cp, proc, now+delay, d)
		delay += d
		cp.frozen = false
		cp.writers.Clear()
		if len(cp.copies) == 1 {
			cp.state = Present1
		}
		s.event(now, EvThaw, proc, cp)
		thawed++
	}
	s.rec.Record(span.Span{ID: sweepID, Kind: span.KindDefrostSweep, Start: now, End: now + delay,
		Proc: proc, Track: t.ID(), Page: -1, NoteFmt: "thawed %d", NoteArg0: thawed, NoteN: 1})
	s.spanFlush(t)
	if delay > 0 {
		t.Advance(delay)
	}
	return thawed
}

// DefrostDue thaws only the frozen pages whose age exceeds minAge,
// implementing the paper's proposed alternative of a thaw queue ordered
// by per-page thaw time (§4.2: "maintain the list of frozen pages as a
// priority queue ordered by thaw time ... allows the daemon to run more
// often than every t2 seconds"). It returns the number thawed and the
// earliest next thaw time.
//
// next is 0 if and only if no pages remain frozen; otherwise it is
// strictly greater than now (a page survives the sweep only when
// now - frozenAt < minAge, i.e. frozenAt + minAge > now), so a caller
// sleeping until next can never busy-loop on an already-due wakeup.
func (s *System) DefrostDue(t *sim.Thread, proc int, minAge sim.Time) (thawed int, next sim.Time) {
	now := t.Now()
	sweepID := s.rec.Alloc()
	s.spanParent = sweepID
	s.spanTrack = t.ID()
	var delay sim.Time
	// In-place filter over the shared backing array: surviving pages are
	// re-appended at a write index that never passes the read index.
	list := s.frozen
	s.frozen = s.frozen[:0]
	for _, cp := range list {
		if !cp.frozen {
			cp.enlisted = false
			continue
		}
		if now-cp.frozenAt < minAge {
			s.frozen = append(s.frozen, cp) // stays enlisted
			if due := cp.frozenAt + minAge; next == 0 || due < next {
				next = due
			}
			continue
		}
		cp.enlisted = false
		s.roundBegin()
		d, _ := s.shootdownCpage(cp, proc, now, false, false, affectAll)
		s.spanThaw(cp, proc, now+delay, d)
		delay += d
		cp.frozen = false
		cp.writers.Clear()
		if len(cp.copies) == 1 {
			cp.state = Present1
		}
		s.event(now, EvThaw, proc, cp)
		thawed++
	}
	if len(list) > 0 {
		// No span for the empty polls the adaptive daemon makes every
		// tick — only sweeps that examined at least one page.
		s.rec.Record(span.Span{ID: sweepID, Kind: span.KindDefrostSweep, Start: now, End: now + delay,
			Proc: proc, Track: t.ID(), Page: -1, NoteFmt: "thawed %d", NoteArg0: thawed, NoteN: 1})
	}
	s.spanFlush(t)
	if delay > 0 {
		t.Advance(delay)
	}
	return thawed, next
}

// StartDefrostDaemon spawns the defrost daemon as a simulation daemon
// thread bound to processor proc. With AdaptiveDefrost unset it wakes
// every cfg.DefrostPeriod and thaws everything frozen (the paper's
// simple policy); with AdaptiveDefrost set it thaws each page once it
// has been frozen for DefrostPeriod, sleeping only until the next page
// is due (the §4.2 priority-queue alternative). It is a no-op
// (returning nil) when the period is zero.
func (s *System) StartDefrostDaemon(proc int) *sim.Thread {
	period := s.cfg.DefrostPeriod
	if period <= 0 {
		return nil
	}
	t := s.machine.Engine().Spawn("defrost-daemon", func(th *sim.Thread) {
		th.BindNode(proc)
		if !s.cfg.AdaptiveDefrost {
			for {
				th.Charge(sim.CauseSync, period)
				s.DefrostSweep(th, proc)
			}
		}
		// Adaptive: poll frequently enough to notice new freezes, but
		// only thaw pages that have aged a full period.
		tick := period / 8
		if tick <= 0 {
			tick = period
		}
		for {
			_, next := s.DefrostDue(th, proc, period)
			sleep := tick
			if next > 0 {
				if d := next - th.Now(); d > 0 && d < sleep {
					sleep = d
				}
			}
			th.Charge(sim.CauseSync, sleep)
		}
	})
	t.SetDaemon(true)
	return t
}

// FrozenPages returns the pages currently on the frozen list.
func (s *System) FrozenPages() []*Cpage {
	out := make([]*Cpage, 0, len(s.frozen))
	for _, cp := range s.frozen {
		if cp.frozen {
			out = append(out, cp)
		}
	}
	return out
}
