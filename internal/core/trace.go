package core

import (
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Event tracing: the §9 "instrumentation interface to the kernel to
// help interpret its behavior". When enabled, the coherent memory
// system records one event per protocol action with its virtual
// timestamp, so tools can reconstruct per-page and per-phase behaviour
// (the aggregate counters in Report answer "how much"; the trace
// answers "when").

// EventKind classifies a trace event.
type EventKind uint8

// Trace event kinds.
const (
	EvReadFault EventKind = iota
	EvWriteFault
	EvReplication
	EvMigration
	EvInvalidation
	EvRemoteMap
	EvFreeze
	EvThaw

	// evKindCount counts the kinds above; adding a kind without naming
	// it in eventKindNames trips the exhaustiveness test.
	evKindCount
)

// EventKinds returns every event kind, in declaration order, for code
// that iterates over all kinds (summaries, exhaustiveness tests)
// without hard-coding the first and last kind.
func EventKinds() []EventKind {
	kinds := make([]EventKind, evKindCount)
	for i := range kinds {
		kinds[i] = EventKind(i)
	}
	return kinds
}

// eventKindNames is sized by the sentinel, so a kind added without a
// name leaves an empty entry that String reports as event(?).
var eventKindNames = [evKindCount]string{
	EvReadFault:    "read-fault",
	EvWriteFault:   "write-fault",
	EvReplication:  "replication",
	EvMigration:    "migration",
	EvInvalidation: "invalidation",
	EvRemoteMap:    "remote-map",
	EvFreeze:       "freeze",
	EvThaw:         "thaw",
}

// String returns the hyphenated event name used in trace listings and
// the timeline JSONL export (e.g. "read-fault").
func (k EventKind) String() string {
	if k < evKindCount && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return "event(?)"
}

// Event is one recorded protocol action.
type Event struct {
	Time  sim.Time  // when the action occurred (virtual)
	Kind  EventKind // what happened
	Proc  int       // processor involved (-1 when not applicable)
	Cpage int64     // coherent page id
}

// tracer buffers events up to a fixed capacity, counting overflow. It
// records only while cap is positive. Its buffer outlives Reset, so a
// pooled system that traces every run fills the same buffer each time.
type tracer struct {
	events  []Event
	cap     int
	dropped int64
}

// EnableTrace starts recording protocol events, keeping at most capacity
// of them (further events are counted but dropped); zero or negative
// stops recording. Calling it again empties the buffer, which is reused
// when its capacity matches.
func (s *System) EnableTrace(capacity int) {
	capacity = max(capacity, 0)
	if cap(s.tr.events) != capacity {
		s.tr.events = make([]Event, 0, capacity)
	}
	s.tr = tracer{events: s.tr.events[:0], cap: capacity}
}

// Trace returns the recorded events in order, plus how many were
// dropped after the buffer filled. The slice is valid until the next
// Reset or EnableTrace, which reuse its buffer.
func (s *System) Trace() (events []Event, dropped int64) {
	if s.tr.cap == 0 {
		return nil, 0
	}
	return s.tr.events, s.tr.dropped
}

// event records one protocol action on cp — the one call every action
// goes through, so the page's counters, the trace and the count series
// cannot disagree. It bumps cp's counter for kind, counts freezes and
// thaws in the span recorder's operation-count series, and appends the
// trace event if tracing is enabled.
func (s *System) event(at sim.Time, kind EventKind, proc int, cp *Cpage) {
	st := &cp.Stats
	switch kind {
	case EvReadFault:
		st.ReadFaults++
	case EvWriteFault:
		st.WriteFaults++
	case EvReplication:
		st.Replications++
	case EvMigration:
		st.Migrations++
	case EvInvalidation:
		st.Invalidations++
	case EvRemoteMap:
		st.RemoteMaps++
	case EvFreeze:
		st.Freezes++
		s.rec.CountEvent(at, span.CountFreeze)
	case EvThaw:
		st.Thaws++
		s.rec.CountEvent(at, span.CountThaw)
	}
	if s.tr.cap == 0 {
		return
	}
	if len(s.tr.events) >= s.tr.cap {
		s.tr.dropped++
		return
	}
	s.tr.events = append(s.tr.events, Event{Time: at, Kind: kind, Proc: proc, Cpage: cp.id})
}
