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
// does not have, and its args keys in sorted order. Timestamps are
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
		j.event(m.name, "", "M", 0)
		j.track(m.pid, m.tid)
		j.Key("args").OpenObject()
		j.Key("name").String(m.label)
		j.CloseObject()
		j.CloseObject()
	}

	var note []byte
	for i := range ordered {
		sp := &ordered[i]
		note = sp.appendNote(note[:0])
		kind, cause := sp.Kind.String(), sp.Cause.String()
		j.event(kind, cause, "X", int64(sp.Start))
		j.Key("dur").usec(int64(sp.End - sp.Start))
		j.track(procPid(sp.Proc), int64(sp.Track))
		j.Key("args").OpenObject()
		j.Key("cause").String(cause)
		if sp.State != "" {
			j.Key("dir_mask").uint(sp.DirMask)
		}
		if len(note) > 0 {
			j.Key("note").text(note)
		}
		if sp.Page >= 0 {
			j.Key("page").Int(sp.Page)
		}
		if sp.Parent != None {
			j.Key("parent").Int(int64(sp.Parent))
		}
		j.Key("self_ns").Int(int64(sp.Self))
		j.Key("span_id").Int(int64(sp.ID))
		if sp.State != "" {
			j.Key("state").String(sp.State)
		}
		j.CloseObject()
		j.CloseObject()
		if sp.pageMirrored() {
			// Async mirror on the page's own track. Async events tolerate
			// the overlap that queued concurrent faults produce on a page
			// timeline, which complete events would render as nonsense.
			j.event(kind, "page", "b", int64(sp.Start))
			j.track(chromePagePid, sp.Page)
			j.Key("id").spanID(sp.ID)
			j.Key("args").OpenObject()
			j.Key("note").text(note)
			j.Key("proc").Int(int64(sp.Proc))
			j.CloseObject()
			j.CloseObject()
			j.event(kind, "page", "e", int64(sp.End))
			j.track(chromePagePid, sp.Page)
			j.Key("id").spanID(sp.ID)
			j.CloseObject()
		}
	}

	for _, tr := range counters {
		for _, p := range tr.Points {
			j.event(tr.Name, "", "C", p.Ts)
			j.track(chromeCounterPid, 0)
			j.Key("args").OpenObject()
			j.Key("value").float(p.Value)
			j.CloseObject()
			j.CloseObject()
		}
	}

	j.CloseArray()
	j.CloseObject()
	return j.Close()
}

// event opens a trace event and writes its name, cat (left out when
// empty), ph and ts fields.
func (j *JSONWriter) event(name, cat, ph string, tsNs int64) {
	j.OpenObject()
	j.Key("name").String(name)
	if cat != "" {
		j.Key("cat").String(cat)
	}
	j.Key("ph").String(ph)
	j.Key("ts").usec(tsNs)
}

// track writes an event's pid and tid fields.
func (j *JSONWriter) track(pid, tid int64) {
	j.Key("pid").Int(pid)
	j.Key("tid").Int(tid)
}

// usec writes virtual nanoseconds as the format's microseconds.
func (j *JSONWriter) usec(ns int64) {
	j.value()
	j.b = appendUsec(j.b, ns)
}

// spanID writes the id that pairs a span's async events.
func (j *JSONWriter) spanID(id ID) {
	j.value()
	j.b = append(j.b, `"span-`...)
	j.b = strconv.AppendInt(j.b, int64(id), 10)
	j.b = append(j.b, '"')
}

// text writes a rendered note as a JSON string.
func (j *JSONWriter) text(s []byte) {
	j.value()
	j.b = appendString(j.b, s)
}
