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

// chromeChunk is how many bytes of events the export buffers before
// it hands them to the writer.
const chromeChunk = 32 << 10

// usec converts virtual nanoseconds to the format's microseconds.
// Virtual time is integer nanoseconds, so ns/1000 is exact to the
// three decimal places float64 easily carries.
func usec(ns int64) float64 { return float64(ns) / 1000.0 }

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
// The document is streamed: each event is appended to one reused
// buffer that goes to w in chunks. It is byte for byte what
// encoding/json writes for the format with a one-space indent: every
// event's fields in the order name, cat, ph, ts, dur, pid, tid, id,
// args, leaving out the cat, dur, id or args an event does not have,
// and its args keys in sorted order. A non-finite counter value
// returns encoding/json's error before any byte is written.
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
	// seen first leaves a generic name. Slice notes are rendered here
	// and reused by the event loop, so every note is rendered once.
	type track struct{ pid, tid int64 }
	names := make(map[track]string)
	pids := make(map[int64]bool)
	pages := make(map[int64]bool)
	var sliceNotes []string
	for i := range ordered {
		sp := &ordered[i]
		tr := track{procPid(sp.Proc), int64(sp.Track)}
		pids[tr.pid] = true
		note := ""
		if sp.Kind == KindSlice {
			note = sp.NoteText()
			sliceNotes = append(sliceNotes, note)
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

	c := chromeWriter{w: w, b: make([]byte, 0, 2*chromeChunk)}
	c.b = append(c.b, "{\n \"traceEvents\": ["...)
	for _, m := range metas {
		c.open(m.name, "", "M", 0)
		c.track(m.pid, m.tid)
		c.arg("name").str(m.label)
		c.close()
	}

	for i := range ordered {
		sp := &ordered[i]
		var note string
		if sp.Kind == KindSlice {
			note, sliceNotes = sliceNotes[0], sliceNotes[1:]
		} else {
			note = sp.NoteText()
		}
		kind, cause := sp.Kind.String(), sp.Cause.String()
		c.open(kind, cause, "X", usec(int64(sp.Start)))
		c.field("dur").float(usec(int64(sp.End - sp.Start)))
		c.track(procPid(sp.Proc), int64(sp.Track))
		c.arg("cause").str(cause)
		if sp.State != "" {
			c.arg("dir_mask").uint(sp.DirMask)
		}
		if note != "" {
			c.arg("note").str(note)
		}
		if sp.Page >= 0 {
			c.arg("page").int(sp.Page)
		}
		if sp.Parent != None {
			c.arg("parent").int(int64(sp.Parent))
		}
		c.arg("self_ns").int(int64(sp.Self))
		c.arg("span_id").int(int64(sp.ID))
		if sp.State != "" {
			c.arg("state").str(sp.State)
		}
		c.close()
		if sp.pageMirrored() {
			// Async mirror on the page's own track. Async events tolerate
			// the overlap that queued concurrent faults produce on a page
			// timeline, which complete events would render as nonsense.
			c.open(kind, "page", "b", usec(int64(sp.Start)))
			c.track(chromePagePid, sp.Page)
			c.spanID(sp.ID)
			c.arg("note").str(note)
			c.arg("proc").int(int64(sp.Proc))
			c.close()
			c.open(kind, "page", "e", usec(int64(sp.End)))
			c.track(chromePagePid, sp.Page)
			c.spanID(sp.ID)
			c.close()
		}
	}

	for _, tr := range counters {
		for _, p := range tr.Points {
			c.open(tr.Name, "", "C", usec(p.Ts))
			c.track(chromeCounterPid, 0)
			c.arg("value").float(p.Value)
			c.close()
		}
	}

	if c.events > 0 {
		c.b = append(c.b, "\n ]\n}\n"...)
	} else {
		c.b = append(c.b, "]\n}\n"...)
	}
	c.flush()
	return c.err
}

// chromeWriter appends trace events to b in encoding/json's indented
// layout and hands b to w whenever an event leaves it at least
// chromeChunk bytes long. The first error sticks: nothing is written
// after it.
type chromeWriter struct {
	w      io.Writer
	b      []byte
	events int  // events begun so far
	inArgs bool // the current event's args object is open
	err    error
}

// open begins an event with its name, cat (left out when empty), ph
// and ts fields.
func (c *chromeWriter) open(name, cat, ph string, ts float64) {
	if c.events > 0 {
		c.b = append(c.b, ',')
	}
	c.events++
	c.b = append(c.b, "\n  {\n   \"name\": "...)
	c.str(name)
	if cat != "" {
		c.field("cat").str(cat)
	}
	c.field("ph").str(ph)
	c.field("ts").float(ts)
}

// field begins the current event's next field; the value follows.
func (c *chromeWriter) field(key string) *chromeWriter {
	c.b = append(c.b, ",\n   \""...)
	c.b = append(c.b, key...)
	c.b = append(c.b, "\": "...)
	return c
}

// track writes the pid and tid fields.
func (c *chromeWriter) track(pid, tid int64) {
	c.field("pid").int(pid)
	c.field("tid").int(tid)
}

// spanID writes the id field that pairs a span's async events.
func (c *chromeWriter) spanID(id ID) {
	c.field("id")
	c.b = append(c.b, "\"span-"...)
	c.b = strconv.AppendInt(c.b, int64(id), 10)
	c.b = append(c.b, '"')
}

// arg begins the next key of the current event's args object, opening
// the object at its first key; the value follows.
func (c *chromeWriter) arg(key string) *chromeWriter {
	if c.inArgs {
		c.b = append(c.b, ',')
	} else {
		c.field("args")
		c.b = append(c.b, '{')
		c.inArgs = true
	}
	c.b = append(c.b, "\n    \""...)
	c.b = append(c.b, key...)
	c.b = append(c.b, "\": "...)
	return c
}

// close ends the current event, and its args object if it has one.
func (c *chromeWriter) close() {
	if c.inArgs {
		c.b = append(c.b, "\n   }"...)
		c.inArgs = false
	}
	c.b = append(c.b, "\n  }"...)
	if len(c.b) >= chromeChunk {
		c.flush()
	}
}

// flush hands the buffered bytes to w unless an error came first.
func (c *chromeWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.b)
	}
	c.b = c.b[:0]
}

func (c *chromeWriter) int(v int64)   { c.b = strconv.AppendInt(c.b, v, 10) }
func (c *chromeWriter) uint(v uint64) { c.b = strconv.AppendUint(c.b, v, 10) }

// float writes f as encoding/json does: zero and magnitudes in
// [1e-6, 1e21) in plain decimal, and any other value through
// json.Marshal.
func (c *chromeWriter) float(f float64) {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		c.b = strconv.AppendFloat(c.b, f, 'f', -1, 64)
		return
	}
	c.marshal(f)
}

// str writes s as a JSON string. Printable ASCII other than '"', '\\'
// and encoding/json's HTML escapes '<', '>' and '&' is copied as it
// is; any other string goes through json.Marshal, so its escapes,
// invalid UTF-8 and U+2028 come out as encoding/json writes them.
func (c *chromeWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b > 0x7e || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			c.marshal(s)
			return
		}
	}
	c.b = append(c.b, '"')
	c.b = append(c.b, s...)
	c.b = append(c.b, '"')
}

// marshal writes v as json.Marshal renders it.
func (c *chromeWriter) marshal(v any) {
	out, err := json.Marshal(v)
	if err != nil && c.err == nil {
		c.err = err
	}
	c.b = append(c.b, out...)
}
