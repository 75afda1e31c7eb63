package span

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Chrome trace-event export (the JSON Object Format consumed by
// Perfetto and chrome://tracing). Each simulated processor becomes a
// trace process with one track per simulation thread that ran on it;
// a synthetic "pages" process carries one async track per coherent
// page so a page's fault and thaw history can be read as a timeline
// even though the spans were recorded on many different threads.

// Synthetic process ids for spans with no processor, the per-page
// async tracks, and the machine-wide counter tracks. Real processors
// use their own ids, which are always far below these.
const (
	chromeNoProcPid  = 1 << 20
	chromePagePid    = 1<<20 + 1
	chromeCounterPid = 1<<20 + 2
)

// usec converts virtual nanoseconds to the format's microseconds.
// Virtual time is integer nanoseconds, so ns/1000 is exact to the
// three decimal places float64 easily carries.
func usec(ns int64) float64 { return float64(ns) / 1000.0 }

// appendUsec appends usec(ns) as encoding/json writes it, from the
// integer: for |ns| < 10^15 the exact decimal ns/1000 has at most 15
// significant digits, so it is the shortest decimal that reads back as
// usec(ns), which is what strconv.AppendFloat prints. Beyond that it
// formats the float.
func appendUsec(b []byte, ns int64) []byte {
	if ns <= -1e15 || ns >= 1e15 {
		return appendFloat(b, usec(ns))
	}
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	if frac := ns % 1000; frac != 0 {
		b = append(b, '.', byte('0'+frac/100))
		if frac%100 != 0 {
			b = append(b, byte('0'+frac/10%10))
			if frac%10 != 0 {
				b = append(b, byte('0'+frac%10))
			}
		}
	}
	return b
}

// procPid maps a span's processor to its trace process: the processor
// itself, or the synthetic no-processor process.
func procPid(proc int) int64 {
	if proc < 0 {
		return chromeNoProcPid
	}
	return int64(proc)
}

// pageMirrored reports whether a span also gets async events on its
// page's track: faults and thaws of a known page.
func (sp *Span) pageMirrored() bool {
	return sp.Page >= 0 && (sp.Kind == KindFault || sp.Kind == KindThaw)
}

// CounterPoint is one sample of a counter track: the counter takes
// Value at virtual time Ts and holds it until the next point.
type CounterPoint struct {
	Ts    int64 // virtual time, ns
	Value float64
}

// CounterTrack is one named counter rendered as its own chart row in
// Perfetto — a rate curve (faults per window, remote-access fraction)
// alongside the span timeline it explains.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// WriteChrome writes spans as Chrome trace-event JSON. Every span
// becomes a complete ("X") event on (pid = processor, tid = recording
// thread); fault and thaw spans are mirrored as async ("b"/"e") events
// on the per-page process so each page gets its own causal timeline.
func WriteChrome(w io.Writer, spans []Span) error {
	return WriteChromeWith(w, spans, nil)
}

// WriteChromeWith is WriteChrome plus counter tracks: each track
// becomes a sequence of counter ("C") events on a synthetic "counters"
// process, charted by Perfetto as a value-over-time row. Tracks are
// emitted in the order given — callers keep that order deterministic.
//
// The document is streamed through a JSONWriter with a one-space
// indent, and is byte for byte what encoding/json writes for the
// format: every event's fields in the order name, cat, ph, ts, dur,
// pid, tid, id, args, leaving out the cat, dur, id or args an event
// does not have, and its args keys in sorted order. Each event is
// appended whole to the writer's buffer: keys and indentation as
// literal runs, kind, cause and phase names as they are, since none
// needs an escape (TestEventNamesArePlain keeps it so), and only
// notes, states, labels and counter names escaped. Timestamps are
// printed from the integer nanoseconds and lazy notes rendered into
// one reused buffer, so the export allocates per track and page, not
// per span. A non-finite counter value returns encoding/json's error
// before any byte is written.
func WriteChromeWith(w io.Writer, spans []Span, counters []CounterTrack) error {
	for _, tr := range counters {
		for _, p := range tr.Points {
			if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
				_, err := json.Marshal(p.Value)
				return err
			}
		}
	}
	ordered := inOrder(spans)

	// Track names: a slice span names its thread's track; anything else
	// seen first leaves a generic name.
	type track struct{ pid, tid int64 }
	names := make(map[track]string)
	pids := make(map[int64]bool)
	pages := make(map[int64]bool)
	for i := range ordered {
		sp := &ordered[i]
		tr := track{procPid(sp.Proc), int64(sp.Track)}
		pids[tr.pid] = true
		note := ""
		if sp.Kind == KindSlice {
			note = sp.NoteText()
		}
		if note != "" {
			names[tr] = note
		} else if _, ok := names[tr]; !ok {
			names[tr] = "thread " + strconv.Itoa(sp.Track)
		}
		if sp.pageMirrored() {
			pages[sp.Page] = true
		}
	}

	// Metadata events, ordered by pid, then tid, then event name (map
	// iteration order is not deterministic).
	type meta struct {
		pid, tid    int64
		name, label string
	}
	metas := make([]meta, 0, len(pids)+len(names)+len(pages)+2)
	for pid := range pids {
		label := "proc " + strconv.FormatInt(pid, 10)
		if pid == chromeNoProcPid {
			label = "unplaced"
		}
		metas = append(metas, meta{pid, 0, "process_name", label})
	}
	if len(pages) > 0 {
		metas = append(metas, meta{chromePagePid, 0, "process_name", "pages"})
	}
	if len(counters) > 0 {
		metas = append(metas, meta{chromeCounterPid, 0, "process_name", "counters"})
	}
	for tr, name := range names {
		metas = append(metas, meta{tr.pid, tr.tid, "thread_name", name})
	}
	for page := range pages {
		metas = append(metas, meta{chromePagePid, page, "thread_name", "page " + strconv.FormatInt(page, 10)})
	}
	slices.SortFunc(metas, func(a, b meta) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.tid, b.tid), strings.Compare(a.name, b.name))
	})

	j := NewJSONWriter(w, " ")
	j.OpenObject()
	j.Key("traceEvents").OpenArray()
	for _, m := range metas {
		j.elem()
		b := appendHead(j.b, m.name, "", "M", 0)
		b = appendTrack(b, m.pid, m.tid)
		b = append(b, argsOpen+`"name": `...)
		b = appendString(b, m.label)
		j.b = append(b, argsClose...)
		j.spill()
	}

	var note []byte
	for i := range ordered {
		sp := &ordered[i]
		note = sp.appendNote(note[:0])
		kind, cause := sp.Kind.String(), sp.Cause.String()
		j.elem()
		b := appendHead(j.b, kind, cause, "X", int64(sp.Start))
		b = append(b, field+`"dur": `...)
		b = appendUsec(b, int64(sp.End-sp.Start))
		b = appendTrack(b, procPid(sp.Proc), int64(sp.Track))
		b = append(b, argsOpen+`"cause": "`...)
		b = append(b, cause...)
		b = append(b, '"')
		if sp.State != "" {
			b = append(b, arg+`"dir_mask": `...)
			b = strconv.AppendUint(b, sp.DirMask, 10)
		}
		if len(note) > 0 {
			b = append(b, arg+`"note": `...)
			b = appendString(b, note)
		}
		if sp.Page >= 0 {
			b = append(b, arg+`"page": `...)
			b = strconv.AppendInt(b, sp.Page, 10)
		}
		if sp.Parent != None {
			b = append(b, arg+`"parent": `...)
			b = strconv.AppendInt(b, int64(sp.Parent), 10)
		}
		b = append(b, arg+`"self_ns": `...)
		b = strconv.AppendInt(b, int64(sp.Self), 10)
		b = append(b, arg+`"span_id": `...)
		b = strconv.AppendInt(b, int64(sp.ID), 10)
		if sp.State != "" {
			b = append(b, arg+`"state": `...)
			b = appendString(b, sp.State)
		}
		j.b = append(b, argsClose...)
		if sp.pageMirrored() {
			// Async mirror on the page's own track. Async events tolerate
			// the overlap that queued concurrent faults produce on a page
			// timeline, which complete events would render as nonsense.
			j.elem()
			b = appendHead(j.b, kind, "page", "b", int64(sp.Start))
			b = appendTrack(b, chromePagePid, sp.Page)
			b = appendSpanID(b, sp.ID)
			b = append(b, argsOpen+`"note": `...)
			b = appendString(b, note)
			b = append(b, arg+`"proc": `...)
			b = strconv.AppendInt(b, int64(sp.Proc), 10)
			j.b = append(b, argsClose...)
			j.elem()
			b = appendHead(j.b, kind, "page", "e", int64(sp.End))
			b = appendTrack(b, chromePagePid, sp.Page)
			b = appendSpanID(b, sp.ID)
			j.b = append(b, eventClose...)
		}
		j.spill()
	}

	for _, tr := range counters {
		for _, p := range tr.Points {
			j.elem()
			b := append(j.b, eventOpen+`"name": `...)
			b = appendString(b, tr.Name)
			b = append(b, field+`"ph": "C"`+field+`"ts": `...)
			b = appendUsec(b, p.Ts)
			b = appendTrack(b, chromeCounterPid, 0)
			b = append(b, argsOpen+`"value": `...)
			b = appendFloat(b, p.Value)
			j.b = append(b, argsClose...)
			j.spill()
		}
	}

	j.CloseArray()
	j.CloseObject()
	return j.Close()
}

// The literal runs of a trace event in the export's one-space layout:
// an event is an element of traceEvents, two levels deep, its fields
// one level deeper and its args' fields one more.
const (
	eventOpen  = "{\n   "                  // an event's brace, up to its first key
	field      = ",\n   "                  // before an event's next field
	arg        = ",\n    "                 // before an arg's next field
	argsOpen   = ",\n   \"args\": {\n    " // the args object, up to its first key
	eventClose = "\n  }"
	argsClose  = "\n   }\n  }" // the args object's end and the event's
)

// appendHead appends the opening of an event and its name, cat (left
// out when empty), ph and ts fields. name, cat and ph are written as
// they are: the export only passes names that need no escape.
func appendHead(b []byte, name, cat, ph string, tsNs int64) []byte {
	b = append(b, eventOpen+`"name": "`...)
	b = append(b, name...)
	if cat != "" {
		b = append(b, `"`+field+`"cat": "`...)
		b = append(b, cat...)
	}
	b = append(b, `"`+field+`"ph": "`...)
	b = append(b, ph...)
	b = append(b, `"`+field+`"ts": `...)
	return appendUsec(b, tsNs)
}

// appendTrack appends an event's pid and tid fields.
func appendTrack(b []byte, pid, tid int64) []byte {
	b = append(b, field+`"pid": `...)
	b = strconv.AppendInt(b, pid, 10)
	b = append(b, field+`"tid": `...)
	return strconv.AppendInt(b, tid, 10)
}

// appendSpanID appends the id field that pairs a span's async events.
func appendSpanID(b []byte, id ID) []byte {
	b = append(b, field+`"id": "span-`...)
	b = strconv.AppendInt(b, int64(id), 10)
	return append(b, '"')
}
