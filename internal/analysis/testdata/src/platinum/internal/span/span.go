// Package span is the fixture stub of the real internal/span: the Kind
// enum and the Recorder/Open begin-end API the spanpair fixture uses.
// Its import path ends in internal/span, so Begin here is the one the
// spanpair analyzer tracks.
package span

import "platinum/internal/sim"

// Kind classifies a span.
type Kind uint8

// The declared span kinds.
const (
	KindFault Kind = iota
	KindSlice
)

// ID identifies a recorded span.
type ID int32

// Span is one recorded interval.
type Span struct {
	Kind       Kind
	Start, End sim.Time
}

// Recorder collects spans.
type Recorder struct{ spans []Span }

// Open is a begun, not-yet-ended span.
type Open struct {
	r  *Recorder
	sp Span
}

// Begin opens a span; the result must be ended or handed off.
func (r *Recorder) Begin(kind Kind, start sim.Time) *Open {
	return &Open{r: r, sp: Span{Kind: kind, Start: start}}
}

// Note attaches a label and returns the open span for chaining.
func (o *Open) Note(n string) *Open { return o }

// End closes and records the span.
func (o *Open) End(end sim.Time) ID {
	o.sp.End = end
	return o.r.Record(o.sp)
}

// Record stores a completed span.
func (r *Recorder) Record(sp Span) ID {
	r.spans = append(r.spans, sp)
	return ID(len(r.spans) - 1)
}
