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

// StartDefrostDaemon spawns the defrost daemon as a simulation daemon
// thread bound to processor proc. It wakes every cfg.DefrostPeriod and
// thaws everything frozen: the paper's simple policy. The §4.2
// alternative, a priority queue ordered by thaw time, is not built,
// as in the paper. It is a no-op (returning nil) when the period is
// zero.
func (s *System) StartDefrostDaemon(proc int) *sim.Thread {
	period := s.cfg.DefrostPeriod
	if period <= 0 {
		return nil
	}
	t := s.machine.Engine().Spawn("defrost-daemon", func(th *sim.Thread) {
		th.BindNode(proc)
		for {
			th.Charge(sim.CauseSync, period)
			s.DefrostSweep(th, proc)
		}
	})
	t.SetDaemon(true)
	return t
}
