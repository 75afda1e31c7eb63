// Package span records hierarchical, causally-linked spans of the
// coherent memory protocol's operations — §9's "instrumentation for
// performance monitoring, analysis, and visualization" as a timeline
// rather than a counter. Where internal/sim's cost attribution answers
// *how much* time each cause consumed and internal/trace's events
// answer *when* protocol actions happened, spans answer *why*: which
// fault triggered which shootdown rounds, which processors were
// interrupted, which block transfer the fault waited on, and which
// defrost sweep thawed which pages.
//
// Recording is pure bookkeeping on the recording thread: it never
// advances a clock, never yields, and never touches the simulation
// engine, so enabling it cannot change dispatch order or any
// simulation result (the same guarantee internal/sim's Account layer
// makes, and the same determinism tests enforce it).
//
// Two retention modes run side by side:
//
//   - a bounded flight-recorder ring holding the most recent spans,
//     always on and cheap enough for default-on, dumped when an
//     invariant trips (see internal/stress);
//   - an optional retained buffer (EnableRetain) holding every span for
//     export as Chrome trace-event JSON (WriteChrome), loadable in
//     Perfetto or chrome://tracing, and for the whole-operation latency
//     histograms derived from it (OpHist).
//
// Every span carries a Cause and the slice of its duration it alone
// attributes to that cause (Self). For the protocol causes
// (ReconciledCauses) the span is the charge: core and mach attribute
// them only by recording the span that carries them (Recorder.Charge,
// or core's per-operation span buffer), so the per-cause sum of Self
// over a complete span set equals the engine's Account totals, which
// Reconcile checks.
package span

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"

	"platinum/internal/sim"
	"platinum/internal/timeseries"
)

// ID identifies a recorded span. Zero means "no span" (no parent).
type ID int64

// None is the zero ID: no span.
const None ID = 0

// Kind classifies a span.
type Kind uint8

// Span kinds, mirroring the protocol's causal structure: a fault opens
// a tree of directory lookups, shootdown rounds (with per-processor
// targets and acks), block transfers and map updates; the defrost
// daemon opens sweep → thaw trees; the kernel records one scheduling
// slice per thread per processor.
const (
	// KindFault is one coherent page fault, entry to completion.
	KindFault Kind = iota
	// KindDirLookup is the fault handler's entry: Cmap lookup, Cpage
	// directory lock (the FaultBase overhead).
	KindDirLookup
	// KindQueueWait is time a fault spent queued on the per-Cpage
	// handler lock (the paper's per-page contention measure).
	KindQueueWait
	// KindIPTLookup is an inverted-page-table probe for a local copy.
	KindIPTLookup
	// KindFrameAlloc is a frame allocation (IPT search + directory
	// update).
	KindFrameAlloc
	// KindFrameFree is a frame reclamation during a shootdown (§4's
	// 10 µs component of the per-extra-target cost).
	KindFrameFree
	// KindShootdown is one shootdown round across every address space
	// mapping a Cpage. Its Self covers the Cmap message posts; the
	// per-target synchronization cost is on KindShootTarget children.
	KindShootdown
	// KindShootTarget is the initiator-side cost of one interrupted
	// target processor (ShootdownSync for the first, InterruptDispatch
	// for each additional one).
	KindShootTarget
	// KindAck is an injected slow interprocessor-interrupt
	// acknowledgement stretching the initiator's wait (CauseSlowAck).
	KindAck
	// KindBlockTransfer is a hardware block transfer (replication,
	// migration, or a migrating thread's kernel stack).
	KindBlockTransfer
	// KindStall is an injected block-transfer stall (CauseRetry).
	KindStall
	// KindMapUpdate is the Pmap/ATC map install completing a fault.
	KindMapUpdate
	// KindIRQPenalty is the deferred cost of interrupts a processor
	// fielded for other processors' shootdowns, folded into its next
	// memory operation.
	KindIRQPenalty
	// KindATCReload is an address-translation-cache reload from the
	// Pmap after an ATC miss that did not escalate to a fault.
	KindATCReload
	// KindMsgApply is a processor applying queued Cmap messages on
	// address-space activation (the lazy half of the shootdown).
	KindMsgApply
	// KindRetry is an injected transient busy/retry delay on a word
	// access (CauseRetry, fault-injection harnesses only).
	KindRetry
	// KindDefrostSweep is one defrost daemon sweep over the frozen list.
	KindDefrostSweep
	// KindThaw is the sweep's decision to thaw one frozen page,
	// enclosing the shootdown round that invalidates its mappings.
	KindThaw
	// KindSlice is a kernel thread's scheduling slice: its lifetime on
	// one processor, split by Migrate.
	KindSlice
	// KindPmapWalk is a hardware page-table walk against the node
	// holding the Pmap, after an ATC miss (CausePmapWalk; only under
	// core.PTConfig page-table placement modeling).
	KindPmapWalk
	// KindPTReplicate is the write-through update of remote page-table
	// replicas after a mapping install (CausePTReplicate; the
	// Mitosis-style variant).
	KindPTReplicate
	// KindBatchFlush is a target processor applying coalesced deferred
	// TLB invalidations on address-space activation (CauseBatchFlush;
	// the numaPTE-style variant). Initiator-side forced-flush targets
	// appear as KindShootTarget children carrying CauseBatchFlush.
	KindBatchFlush

	numKinds // sentinel: count of span kinds
)

// kindNames is sized by the sentinel, so a kind added without a name
// leaves an empty entry that String reports as span(?).
var kindNames = [numKinds]string{
	KindFault:         "fault",
	KindDirLookup:     "dir-lookup",
	KindQueueWait:     "queue-wait",
	KindIPTLookup:     "ipt-lookup",
	KindFrameAlloc:    "frame-alloc",
	KindFrameFree:     "frame-free",
	KindShootdown:     "shootdown",
	KindShootTarget:   "shoot-target",
	KindAck:           "ack",
	KindBlockTransfer: "block-transfer",
	KindStall:         "stall",
	KindMapUpdate:     "map-update",
	KindIRQPenalty:    "irq-penalty",
	KindATCReload:     "atc-reload",
	KindMsgApply:      "msg-apply",
	KindRetry:         "retry",
	KindDefrostSweep:  "defrost-sweep",
	KindThaw:          "thaw",
	KindSlice:         "slice",
	KindPmapWalk:      "pmap-walk",
	KindPTReplicate:   "pt-replicate",
	KindBatchFlush:    "batch-flush",
}

// String returns the kind's stable hyphenated name, used as the event
// name in Chrome trace exports and flight-recorder dumps.
func (k Kind) String() string {
	if k < numKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return "span(?)"
}

// Span is one completed span: a [Start, End) interval of virtual time
// on one track (simulated thread), causally linked to a parent span,
// annotated with the page, processor and protocol state involved, and
// carrying the slice of charged time it attributes to its Cause.
type Span struct {
	ID     ID
	Parent ID // enclosing span, or None

	Kind       Kind
	Start, End sim.Time

	Proc  int   // processor involved (-1 when not applicable)
	Track int   // sim thread id whose virtual time the span occupies
	Page  int64 // coherent page id (-1 when not applicable)

	// Cause and Self: the portion of the owning thread's charged time
	// this span (excluding its children) attributes to Cause. Summed
	// per cause over a complete recording, these reconcile exactly with
	// the engine's Account totals for the protocol causes (Reconcile).
	// Structural spans (slices, sweeps) carry CauseUnattributed and a
	// zero Self.
	Cause sim.Cause
	Self  sim.Time

	State   string // page protocol state tag ("" when not applicable)
	DirMask uint64 // page directory bitmask at record time
	Note    string // cause tag: "write-fault", "migrate", thread name, ...

	// Lazy note: when Note is empty and NoteFmt is set, the span's note
	// is NoteFmt with NoteArg0 (and NoteArg1 when NoteN == 2)
	// substituted. Hot paths use these instead of Note so recording a
	// span never formats a string; NoteText renders on demand at export
	// time. Note and NoteFmt are mutually exclusive — Note wins.
	NoteFmt            string
	NoteArg0, NoteArg1 int
	NoteN              uint8
}

// NoteText renders the span's note: the free-form Note when set,
// otherwise the lazy NoteFmt/NoteArg form ("" when neither is set).
func (sp Span) NoteText() string {
	if sp.Note != "" || sp.NoteFmt == "" {
		return sp.Note
	}
	return string(sp.appendNote(nil))
}

// appendNote appends NoteText's rendering to b. A lazy note whose only
// verbs are one %d per argument is rendered here, without fmt; any
// other format, or a verb count that differs from the argument count,
// goes through fmt, so the bytes are always fmt.Sprintf's.
func (sp *Span) appendNote(b []byte) []byte {
	if sp.Note != "" || sp.NoteFmt == "" {
		return append(b, sp.Note...)
	}
	args := [2]int{sp.NoteArg0, sp.NoteArg1}
	nargs := 1
	if sp.NoteN > 1 {
		nargs = 2
	}
	start, f := len(b), sp.NoteFmt
	for used := 0; ; used++ {
		i := strings.IndexByte(f, '%')
		if i < 0 {
			if used == nargs {
				return append(b, f...)
			}
			break
		}
		if used == nargs || i+1 == len(f) || f[i+1] != 'd' {
			break
		}
		b = append(b, f[:i]...)
		b = strconv.AppendInt(b, int64(args[used]), 10)
		f = f[i+2:]
	}
	if nargs == 1 {
		return fmt.Appendf(b[:start], sp.NoteFmt, sp.NoteArg0)
	}
	return fmt.Appendf(b[:start], sp.NoteFmt, sp.NoteArg0, sp.NoteArg1)
}

// Dur returns the span's duration.
func (sp Span) Dur() sim.Time { return sp.End - sp.Start }

// DefaultFlightSpans is the flight-recorder ring capacity used when a
// Recorder is built with NewRecorder(0): small enough to be free, large
// enough to hold the full causal tree of the last several faults.
const DefaultFlightSpans = 256

// Recorder collects spans. The flight ring is always on; the retained
// buffer only fills after EnableRetain, until Reset. A Recorder
// is not safe for concurrent use — like the rest of the simulator, it
// relies on the engine running one thread at a time.
type Recorder struct {
	next ID

	ring  []Span // flight recorder ring, len == cap once full
	head  int    // next overwrite position
	rcap  int
	total int64 // spans ever recorded

	retaining bool
	retain    []Span
	retainCap int
	dropped   int64 // spans not retained because the buffer was full

	// opens is a free list of Open structs recycled by End, so a
	// Begin/End pair allocates nothing once the recorder is warm.
	opens []*Open

	// Optional operation-count series (see telemetry.go), fed from
	// Record. Whole-operation histograms are not kept here: OpHist
	// derives them from the retained spans.
	countsOn bool
	counts   *timeseries.Series

	// order is Spans' sort keys, kept so repeated exports reuse their
	// array: one integer per retained span, never a Span.
	order []uint64
}

// NewRecorder returns a recorder whose flight ring holds flightCap
// spans (DefaultFlightSpans if flightCap <= 0).
func NewRecorder(flightCap int) *Recorder {
	if flightCap <= 0 {
		flightCap = DefaultFlightSpans
	}
	return &Recorder{ring: make([]Span, 0, flightCap), rcap: flightCap}
}

// Alloc reserves a span ID before the span completes, so children can
// be recorded with their Parent link while the parent is still open.
func (r *Recorder) Alloc() ID {
	r.next++
	return r.next
}

// Record stores one completed span, assigning an ID if the caller did
// not Alloc one. It returns the span's ID.
func (r *Recorder) Record(sp Span) ID {
	if sp.ID == None {
		sp.ID = r.Alloc()
	}
	r.total++
	if r.countsOn {
		r.recordTelemetry(&sp)
	}
	if len(r.ring) < r.rcap {
		r.ring = append(r.ring, sp) // ring warm-up growth, capped at rcap
	} else {
		r.ring[r.head] = sp
		r.head = (r.head + 1) % r.rcap
	}
	if r.retaining {
		if len(r.retain) < r.retainCap {
			r.retain = append(r.retain, sp) // export-mode retention, capped at retainCap
		} else {
			r.dropped++
		}
	}
	return sp.ID
}

// Charge is the single-span charging funnel: it attributes sp.Self of
// t's charged time to sp.Cause, then records sp on t's track, so the
// span and the account cannot disagree. The caller keeps its own
// Advance. On a nil recorder (a bare machine without span recording)
// Charge only attributes.
func (r *Recorder) Charge(t *sim.Thread, sp Span) {
	t.Attribute(sp.Cause, sp.Self)
	if r != nil {
		sp.Track = t.ID()
		r.Record(sp)
	}
}

// Open is a span that has been begun but not yet ended: the structured
// way to record an interval whose start and end are observed at
// different points in the code (a scheduling slice, a transfer in
// flight). Exactly one End must follow every Begin — the
// platinum/spanpair analyzer enforces this statically — and nothing is
// recorded until End, so an Open that is abandoned on an error path
// costs nothing but its allocation (and a vet finding).
type Open struct {
	r    *Recorder
	sp   Span
	done bool
}

// Begin starts a span of the given kind at start. The returned Open
// must be ended (or handed off to an owner that ends it); it records
// nothing until then. Proc and Page default to -1 (not applicable).
// The Open comes from the recorder's free list when one is available;
// End returns it there, so steady-state Begin/End pairs do not
// allocate.
func (r *Recorder) Begin(kind Kind, start sim.Time) *Open {
	var o *Open
	if n := len(r.opens); n > 0 {
		o = r.opens[n-1]
		r.opens[n-1] = nil
		r.opens = r.opens[:n-1]
	} else {
		o = new(Open) // free-list warm-up miss
	}
	*o = Open{r: r, sp: Span{Kind: kind, Start: start, Proc: -1, Page: -1}}
	return o
}

// Proc sets the processor involved.
func (o *Open) Proc(p int) *Open { o.sp.Proc = p; return o }

// Track sets the sim thread id whose virtual time the span occupies.
func (o *Open) Track(id int) *Open { o.sp.Track = id; return o }

// Note sets the free-form cause tag.
func (o *Open) Note(n string) *Open { o.sp.Note = n; return o }

// Notef sets a lazily-rendered note: a format string plus up to two
// integer arguments, substituted only when the note is read (NoteText)
// at export time. Hot paths use this instead of Note so a recorded
// span never pays for string formatting it may never need.
func (o *Open) Notef(format string, a int, rest ...int) *Open {
	o.sp.NoteFmt, o.sp.NoteArg0, o.sp.NoteN = format, a, 1
	if len(rest) > 0 {
		o.sp.NoteArg1, o.sp.NoteN = rest[0], 2
	}
	return o
}

// End closes the span at end and records it, returning the recorded
// span's ID. The ID is allocated here, not at Begin, so a Begin/End
// pair records exactly what a single Record of the completed span
// would — byte-identical exports either way. End also returns the Open
// to the recorder's free list for reuse by a later Begin, so the Open
// must not be used again after End — exactly one End per Begin, the
// discipline the platinum/spanpair analyzer enforces statically.
// (Ending an Open twice before the free list re-issues it records
// nothing the second time and returns the original ID.)
func (o *Open) End(end sim.Time) ID {
	if o.done {
		return o.sp.ID
	}
	o.done = true
	o.sp.End = end
	id := o.r.Record(o.sp)
	o.sp.ID = id
	o.r.opens = append(o.r.opens, o) // free-list warm-up growth
	return id
}

// EnableRetain starts retaining every recorded span, up to capacity
// (a safety bound against runaway exports; reaching it counts drops
// rather than growing without limit). Calling it again resets the
// retained buffer and the drop count.
func (r *Recorder) EnableRetain(capacity int) {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	r.retaining = true
	r.retainCap = capacity
	r.retain = r.retain[:0] // keep the backing array across runs
	r.dropped = 0
}

// Retaining reports whether a retained export buffer is active.
func (r *Recorder) Retaining() bool { return r.retaining }

// Reset returns the recorder to its freshly-constructed state — span
// ids restarting at 1, empty flight ring, retention off — while
// keeping every buffer it has grown (the ring and retained backing
// arrays and the Open free list). A reset recorder records
// byte-for-byte the same spans a new one would.
func (r *Recorder) Reset() {
	r.next = 0
	r.ring = r.ring[:0]
	r.head = 0
	r.total = 0
	r.retaining = false
	r.retain = r.retain[:0]
	r.dropped = 0
	r.resetTelemetry()
}

// Spans returns the retained spans sorted by start time (ties by ID,
// which is completion order). It orders the recorder's own buffer in
// place and returns it, so it allocates nothing once its sort keys
// have grown. The slice is valid until the next Record, EnableRetain
// or Reset, and the caller must not modify it.
func (r *Recorder) Spans() []Span {
	r.order = byStart(r.retain, r.order)
	return r.retain[:len(r.retain):len(r.retain)]
}

// Flight returns the flight ring's contents, oldest first.
func (r *Recorder) Flight() []Span {
	if len(r.ring) < r.rcap {
		return append([]Span(nil), r.ring...)
	}
	out := make([]Span, 0, r.rcap)
	out = append(out, r.ring[r.head:]...)
	out = append(out, r.ring[:r.head]...)
	return out
}

// Total returns how many spans have ever been recorded.
func (r *Recorder) Total() int64 { return r.total }

// Dropped returns how many spans the retained buffer rejected for
// capacity. A nonzero value means Spans() is incomplete and Reconcile
// over it would be meaningless.
func (r *Recorder) Dropped() int64 { return r.dropped }

// byStart puts spans into start order (ties by ID) in place, and
// returns the sort keys it used, in keys' array when that is large
// enough. Each key packs a span's start and ID, as offsets from their
// minimums, above its index, so plain integer order is start order; a
// recording whose ranges do not fit in 64 bits sorts bare indexes by
// comparing the spans. Either way the sorted keys are reduced to the
// indexes they name, and each span then moves once, along the cycles of
// that permutation: several times faster than swapping the 168-byte
// spans themselves, and the keys are all a caller need keep.
func byStart(spans []Span, keys []uint64) []uint64 {
	if cap(keys) < len(spans) {
		keys = make([]uint64, 0, len(spans))
	}
	keys = keys[:0]
	if len(spans) == 0 {
		return keys
	}
	lo, hi := spans[0], spans[0]
	for i := range spans {
		sp := &spans[i]
		lo.Start, hi.Start = min(lo.Start, sp.Start), max(hi.Start, sp.Start)
		lo.ID, hi.ID = min(lo.ID, sp.ID), max(hi.ID, sp.ID)
	}
	idxBits := bits.Len(uint(len(spans) - 1))
	idBits := bits.Len64(uint64(hi.ID) - uint64(lo.ID))
	if bits.Len64(uint64(hi.Start)-uint64(lo.Start))+idBits+idxBits <= 64 {
		for i := range spans {
			sp := &spans[i]
			keys = append(keys, (uint64(sp.Start)-uint64(lo.Start))<<(idBits+idxBits)|
				(uint64(sp.ID)-uint64(lo.ID))<<idxBits|uint64(i))
		}
		slices.Sort(keys)
		index := uint64(1)<<idxBits - 1 // the key bits that hold the index
		for n := range keys {
			keys[n] &= index
		}
	} else {
		for i := range spans {
			keys = append(keys, uint64(i))
		}
		slices.SortFunc(keys, func(i, j uint64) int {
			a, b := &spans[i], &spans[j]
			if a.Start != b.Start {
				return cmp.Compare(a.Start, b.Start)
			}
			return cmp.Compare(a.ID, b.ID)
		})
	}
	// keys[n] is now the index of the span that belongs at n. Follow
	// each cycle from its lowest position, marking positions filled
	// with moved, which no index equals.
	const moved = math.MaxUint64
	for n, src := range keys {
		if src == moved || src == uint64(n) {
			continue
		}
		first, at := spans[n], n
		for src != uint64(n) {
			spans[at], keys[at] = spans[src], moved
			at, src = int(src), keys[src]
		}
		spans[at], keys[at] = first, moved
	}
	return keys
}

// inOrder returns spans in start order: spans itself when it already
// is (Recorder.Spans output), a sorted copy otherwise. The caller's
// slice is never reordered.
func inOrder(spans []Span) []Span {
	for i := 1; i < len(spans); i++ {
		a, b := &spans[i-1], &spans[i]
		if b.Start < a.Start || b.Start == a.Start && b.ID < a.ID {
			out := slices.Clone(spans)
			byStart(out, nil)
			return out
		}
	}
	return spans
}

// Format writes spans as an indented text listing — the flight-recorder
// dump format. Spans are ordered by start time; children indent under
// the nearest enclosing recorded parent. Each span is one line, built
// in a reused buffer and written with one Write.
func Format(w io.Writer, spans []Span) (int64, error) {
	ordered := inOrder(spans)
	depth := make(map[ID]int, len(ordered))
	var n int64
	var line []byte
	for i := range ordered {
		sp := &ordered[i]
		d := 0
		if sp.Parent != None {
			if pd, ok := depth[sp.Parent]; ok {
				d = pd + 1
			}
		}
		depth[sp.ID] = d
		line = fmt.Appendf(line[:0], "%*s%v", 2*d, "", sp.Kind)
		if note := sp.NoteText(); note != "" {
			line = fmt.Appendf(line, " (%s)", note)
		}
		line = fmt.Appendf(line, " [%v +%v]", sp.Start, sp.Dur())
		if sp.Page >= 0 {
			line = fmt.Appendf(line, " page=%d", sp.Page)
		}
		if sp.Proc >= 0 {
			line = fmt.Appendf(line, " proc=%d", sp.Proc)
		}
		if sp.State != "" {
			line = fmt.Appendf(line, " state=%s dirMask=%b", sp.State, sp.DirMask)
		}
		if sp.Self != 0 {
			line = fmt.Appendf(line, " %v=%v", sp.Cause, sp.Self)
		}
		line = append(line, '\n')
		k, err := w.Write(line)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
