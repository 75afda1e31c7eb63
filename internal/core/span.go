package core

import (
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Causal span recording for the protocol paths. A span's Self is the
// charge: no protocol cost is attributed except by recording the span
// that carries it. The fault handler, the defrost daemon and
// Cmap.Remove buffer their child spans in the System's per-operation
// scratch (the engine runs one thread at a time and none of these
// operations yields before flushing, so a single buffer suffices),
// summing their Self by cause, and flush them together with the
// operation's root span before the single Advance that charges the
// operation; the flush attributes the summed account. Single-span
// costs go through span.Recorder.Charge. Buffering keeps error paths
// exact: a failed fault charges no virtual time, so its spans are
// flushed with zeroed durations and costs — still visible in the
// flight recorder, invisible to reconciliation.

// sdTarget is the per-round scratch record of one interrupted
// shootdown target: the initiator-side synchronization or dispatch
// cost, any injected slow-acknowledgement delay, and the cause the
// target's span (and account charge) carries — CauseShootdown for
// eager targets, CauseBatchFlush for targets a forced batch flush
// interrupted (the zero Cause value is CauseUnattributed, so every
// append sets it explicitly).
type sdTarget struct {
	proc  int
	cost  sim.Time
	ack   sim.Time
	cause sim.Cause
}

// Spans returns the system's span recorder (always present; its
// bounded flight ring is always on).
func (s *System) Spans() *span.Recorder { return s.rec }

// spanChild buffers one completed child span of the operation in
// progress, parented (unless the span brings its own parent) to the
// current operation root and placed on the operation's track, and adds
// its Self to the operation's account.
func (s *System) spanChild(sp span.Span) span.ID {
	sp.ID = s.rec.Alloc()
	if sp.Parent == span.None {
		sp.Parent = s.spanParent
	}
	sp.Track = s.spanTrack
	s.pending = append(s.pending, sp)
	s.acct[sp.Cause] += sp.Self
	return sp.ID
}

// spanFlush records the buffered child spans, attributes the
// operation's account to t — one Attribute per cause — and resets the
// per-operation scratch. Call it (after recording the operation root)
// before the Advance that charges the operation, so no other thread
// can start an operation while the buffer is live.
func (s *System) spanFlush(t *sim.Thread) {
	for _, sp := range s.pending {
		s.rec.Record(sp)
	}
	t.AttributeAccount(&s.acct)
	s.pending = s.pending[:0]
	s.acct = sim.Account{}
	s.spanParent = span.None
}

// spanAbort flushes the operation's spans for a failed operation: no
// virtual time was charged, so every span (root included) collapses to
// a zero-duration marker at the failure time with zero Self — exact
// for reconciliation, still structured for the flight-recorder dump.
func (s *System) spanAbort(at sim.Time, root span.Span) {
	root.Start, root.End, root.Self = at, at, 0
	s.rec.Record(root)
	for _, sp := range s.pending {
		sp.Start, sp.End, sp.Self = at, at, 0
		s.rec.Record(sp)
	}
	s.pending = s.pending[:0]
	s.acct = sim.Account{}
	s.spanParent = span.None
	// A failed operation charges nothing, so replica write-through cost
	// its partial work accumulated must not leak into the next fault.
	s.ptRepPend = 0
}

// spanThaw buffers one thaw decision's span — enclosing its shootdown
// round — under the defrost sweep in progress. start is where the thaw
// lands on the sweep's serialized timeline and d the round's delay.
// The page's protocol state and directory are captured pre-thaw: the
// span shows what was dismantled.
func (s *System) spanThaw(cp *Cpage, proc int, start, d sim.Time) {
	thawID := s.spanChild(span.Span{Kind: span.KindThaw, Start: start, End: start + d,
		Proc: proc, Page: cp.id, State: cp.State().String(), DirMask: cp.dirMask()})
	prev := s.spanParent
	s.spanParent = thawID
	s.roundRecord(start, d, cp, proc, "thaw")
	s.spanParent = prev
}

// spanMapUpdate buffers the Pmap/ATC map-install child span that ends
// every successful fault path.
func (s *System) spanMapUpdate(cp *Cpage, proc int, cur sim.Time) {
	s.spanChild(span.Span{Kind: span.KindMapUpdate, Start: cur, End: cur + s.cfg.MapInstall,
		Proc: proc, Page: cp.id, Cause: sim.CauseFault, Self: s.cfg.MapInstall})
}

// roundBegin resets the per-round target scratch. Call it immediately
// before the shootdownCpage/shootdownEntryTracked whose cost
// roundRecord will turn into a span tree.
func (s *System) roundBegin() { s.sdTargets = s.sdTargets[:0] }

// roundRecord buffers the span tree of one shootdown round: a round
// span whose Self is the Cmap message-post cost, a shoot-target child
// per interrupted processor (Self = the initiator's synchronization or
// incremental-dispatch cost), and an ack child per injected slow
// acknowledgement. start is when the round began on the initiating
// thread and d the total delay the shootdown returned. Targets tile
// the interval after the posts — a canonical serialization of costs
// the initiator actually pays back-to-back — so the tree's durations
// sum exactly to d and reconciliation is exact per cause.
func (s *System) roundRecord(start, d sim.Time, cp *Cpage, initiator int, note string) {
	if d == 0 {
		s.sdTargets = s.sdTargets[:0]
		return
	}
	var tcost, tack sim.Time
	for _, tg := range s.sdTargets {
		tcost += tg.cost
		tack += tg.ack
	}
	roundID := s.spanChild(span.Span{
		Kind: span.KindShootdown, Start: start, End: start + d,
		Proc: initiator, Page: cp.id,
		Cause: sim.CauseShootdown, Self: d - tcost - tack,
		State: cp.State().String(), DirMask: cp.dirMask(), Note: note,
	})
	cur := start + (d - tcost - tack)
	for _, tg := range s.sdTargets {
		s.spanChild(span.Span{
			Parent: roundID, Kind: span.KindShootTarget,
			Start: cur, End: cur + tg.cost, Proc: tg.proc, Page: cp.id,
			Cause: tg.cause, Self: tg.cost,
		})
		cur += tg.cost
		if tg.ack > 0 {
			s.spanChild(span.Span{
				Parent: roundID, Kind: span.KindAck,
				Start: cur, End: cur + tg.ack, Proc: tg.proc, Page: cp.id,
				Cause: sim.CauseSlowAck, Self: tg.ack,
			})
			cur += tg.ack
		}
	}
	s.sdTargets = s.sdTargets[:0]
}
