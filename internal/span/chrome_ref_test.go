package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The reference rendering of the Chrome export: one chromeRefEvent per
// trace event with a map of args, the whole document handed to
// encoding/json with a one-space indent. It is what WriteChromeWith
// wrote before it streamed, kept here so the differential tests can
// check that the streaming writer produces the same bytes.

type chromeRefEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeRefTrace struct {
	TraceEvents []chromeRefEvent `json:"traceEvents"`
}

func chromeRefPid(sp Span) int64 {
	if sp.Proc < 0 {
		return chromeNoProcPid
	}
	return int64(sp.Proc)
}

// WriteChromeReference renders spans and counters as the reference
// encoder does. The external tests use it too.
func WriteChromeReference(w io.Writer, spans []Span, counters []CounterTrack) error {
	ordered := append([]Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].ID < ordered[j].ID
	})

	doc := chromeRefTrace{TraceEvents: make([]chromeRefEvent, 0, 2*len(ordered)+16)}

	type track struct{ pid, tid int64 }
	names := make(map[track]string)
	pids := make(map[int64]bool)
	pages := make(map[int64]bool)
	for _, sp := range ordered {
		tr := track{chromeRefPid(sp), int64(sp.Track)}
		pids[tr.pid] = true
		if sp.Kind == KindSlice && sp.NoteText() != "" {
			names[tr] = sp.NoteText()
		} else if _, ok := names[tr]; !ok {
			names[tr] = fmt.Sprintf("thread %d", sp.Track)
		}
		if sp.Page >= 0 && (sp.Kind == KindFault || sp.Kind == KindThaw) {
			pages[sp.Page] = true
		}
	}
	for pid := range pids {
		name := fmt.Sprintf("proc %d", pid)
		if pid == chromeNoProcPid {
			name = "unplaced"
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	if len(pages) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
			Name: "process_name", Ph: "M", Pid: chromePagePid,
			Args: map[string]any{"name": "pages"},
		})
	}
	if len(counters) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
			Name: "process_name", Ph: "M", Pid: chromeCounterPid,
			Args: map[string]any{"name": "counters"},
		})
	}
	for tr, name := range names {
		doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
			Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": name},
		})
	}
	for page := range pages {
		doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
			Name: "thread_name", Ph: "M", Pid: chromePagePid, Tid: page,
			Args: map[string]any{"name": fmt.Sprintf("page %d", page)},
		})
	}
	evs := doc.TraceEvents
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Pid != evs[j].Pid {
			return evs[i].Pid < evs[j].Pid
		}
		if evs[i].Tid != evs[j].Tid {
			return evs[i].Tid < evs[j].Tid
		}
		return evs[i].Name < evs[j].Name
	})

	for _, sp := range ordered {
		dur := usec(int64(sp.End - sp.Start))
		args := map[string]any{
			"span_id": int64(sp.ID),
			"cause":   sp.Cause.String(),
			"self_ns": int64(sp.Self),
		}
		if sp.Parent != None {
			args["parent"] = int64(sp.Parent)
		}
		if sp.Page >= 0 {
			args["page"] = sp.Page
		}
		if sp.State != "" {
			args["state"] = sp.State
			args["dir_mask"] = sp.DirMask
		}
		if note := sp.NoteText(); note != "" {
			args["note"] = note
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
			Name: sp.Kind.String(), Cat: sp.Cause.String(), Ph: "X",
			Ts: usec(int64(sp.Start)), Dur: &dur,
			Pid: chromeRefPid(sp), Tid: int64(sp.Track), Args: args,
		})
		if sp.Page >= 0 && (sp.Kind == KindFault || sp.Kind == KindThaw) {
			id := fmt.Sprintf("span-%d", sp.ID)
			pageArgs := map[string]any{"proc": sp.Proc, "note": sp.NoteText()}
			doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
				Name: sp.Kind.String(), Cat: "page", Ph: "b", ID: id,
				Ts: usec(int64(sp.Start)), Pid: chromePagePid, Tid: sp.Page,
				Args: pageArgs,
			})
			doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
				Name: sp.Kind.String(), Cat: "page", Ph: "e", ID: id,
				Ts: usec(int64(sp.End)), Pid: chromePagePid, Tid: sp.Page,
			})
		}
	}

	for _, tr := range counters {
		for _, p := range tr.Points {
			doc.TraceEvents = append(doc.TraceEvents, chromeRefEvent{
				Name: tr.Name, Ph: "C", Ts: usec(p.Ts), Pid: chromeCounterPid,
				Args: map[string]any{"value": p.Value},
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
