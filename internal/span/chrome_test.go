package span

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"platinum/internal/sim"
)

// hostileText is every kind of string the writer must hand to
// json.Marshal rather than copy: HTML escapes, quote and backslash,
// control bytes, tab and newline, invalid UTF-8, U+2028/U+2029 and
// non-ASCII text, plus plain ASCII and the empty string.
var hostileText = []string{
	"<b>&amp;</b>",
	`say "hi" \ bye`,
	"ctl \x00\x01\x1f\x7f",
	"tab\there\nnewline\r",
	"bad \xff\xfe utf-8",
	"sep\u2028line\u2029para",
	"ünïcödé 日本語",
	"plain ascii (ok) ~!@#$%^*",
	"",
}

// hostileSpans is an unsorted recording that walks every branch of the
// export: slice spans naming tracks (hostile names, an empty name, a
// lazy name), notes literal and lazy with one and two arguments,
// states with directory masks, parents, a span with no processor, a
// negative track, an out-of-range kind and cause, and fault and thaw
// spans mirrored on page tracks.
func hostileSpans() []Span {
	var spans []Span
	id := ID(0)
	add := func(sp Span) {
		id++
		sp.ID = id
		spans = append(spans, sp)
	}
	for i, s := range hostileText {
		at := sim.Time(1000 * (len(hostileText) - i)) // newest first: unsorted input
		add(Span{Kind: KindSlice, Start: at, End: at + 900, Proc: i % 3, Track: i, Page: -1, Note: s})
		add(Span{Kind: KindFault, Parent: id, Start: at + 1, End: at + 500, Proc: i % 3, Track: i,
			Page: int64(i), Cause: sim.CauseFault, Self: 123, State: s, DirMask: 1<<63 | uint64(i), Note: s})
		add(Span{Kind: KindBlockTransfer, Parent: id, Start: at + 2, End: at + 300, Proc: i % 3, Track: i,
			Page: int64(i), Cause: sim.CauseBlockTransfer, Self: 298,
			NoteFmt: "module %d->%d", NoteArg0: i, NoteArg1: -i, NoteN: 2})
		add(Span{Kind: KindThaw, Start: at + 600, End: at + 601, Proc: -1, Track: i, Page: int64(i),
			NoteFmt: "thawed %d <", NoteArg0: i, NoteN: 1})
	}
	add(Span{Kind: KindSlice, Start: 7, End: 9, Proc: 2, Track: 40, Page: -1, NoteFmt: "lazy-%d", NoteArg0: 4, NoteN: 1})
	add(Span{Kind: KindSlice, Start: 5, End: 6, Proc: 2, Track: 41, Page: -1})
	add(Span{Kind: Kind(200), Start: 3, End: 3, Proc: 1, Track: -2, Page: -1, Cause: sim.Cause(250), Self: -5})
	add(Span{Kind: KindFault, Start: 1, End: 1_000_000_000_001, Proc: 0, Track: 0, Page: 1 << 40, Note: "x"})
	return spans
}

// hostileCounters exercises encoding/json's float rule (zero, negative
// zero, magnitudes below 1e-6 and from 1e21 in exponent form) and
// hostile track names.
func hostileCounters() []CounterTrack {
	vals := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1.0 / 3, -3.25, 1e20, 1e21, 1e22, -2.5e-9, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var pts []CounterPoint
	for i, v := range vals {
		pts = append(pts, CounterPoint{Ts: int64(1000 * i), Value: v})
	}
	return []CounterTrack{
		{Name: "faults/window", Points: pts},
		{Name: "a <&> b\t\"c\"", Points: pts[:3]},
		{Name: "empty"},
	}
}

// TestWriteChromeMatchesReference checks the streaming writer against
// the encoding/json reference byte for byte.
func TestWriteChromeMatchesReference(t *testing.T) {
	spans := hostileSpans()
	sorted := inOrder(spans)
	cases := []struct {
		name     string
		spans    []Span
		counters []CounterTrack
	}{
		{"empty", nil, nil},
		{"counters only", nil, hostileCounters()},
		{"unsorted", spans, nil},
		{"unsorted with counters", spans, hostileCounters()},
		{"sorted with counters", sorted, hostileCounters()},
	}
	for _, tc := range cases {
		before := slices.Clone(tc.spans)
		var got, want bytes.Buffer
		if err := WriteChromeWith(&got, tc.spans, tc.counters); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := WriteChromeReference(&want, tc.spans, tc.counters); err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: streamed export differs from the reference at byte %d:\ngot:\n%s\nwant:\n%s",
				tc.name, firstDiff(got.Bytes(), want.Bytes()), got.Bytes(), want.Bytes())
		}
		if !slices.Equal(tc.spans, before) {
			t.Errorf("%s: the export reordered the caller's spans", tc.name)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestEventNamesArePlain checks that every name the export appends
// without escaping needs none: each span kind's and cause's name
// (out-of-range ones included), the async events' "page" category, the
// metadata event names and the phase letters.
func TestEventNamesArePlain(t *testing.T) {
	names := []string{"page", "process_name", "thread_name", "X", "b", "e", "M", "C"}
	for k := range 256 {
		names = append(names, Kind(k).String())
	}
	for c := range 256 {
		names = append(names, sim.Cause(c).String())
	}
	for _, s := range names {
		if got := string(appendString(nil, s)); got != `"`+s+`"` {
			t.Errorf("name %q is written unescaped, but JSON writes it as %s", s, got)
		}
	}
}

// TestWriteChromeNonFiniteCounter checks that a NaN or infinite
// counter value returns encoding/json's error and writes nothing, even
// when the spans before it would fill several chunks.
func TestWriteChromeNonFiniteCounter(t *testing.T) {
	var spans []Span
	for i := range 2000 {
		spans = append(spans, Span{ID: ID(i + 1), Kind: KindFault, Start: sim.Time(i), End: sim.Time(i + 1), Page: int64(i % 8), Note: "read-fault"})
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		counters := []CounterTrack{{Name: "ok", Points: []CounterPoint{{0, 1}}}, {Name: "bad", Points: []CounterPoint{{0, 2}, {5, v}}}}
		var got, want bytes.Buffer
		err := WriteChromeWith(&got, spans, counters)
		werr := WriteChromeReference(&want, spans, counters)
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Errorf("value %v: error %v, reference error %v", v, err, werr)
		}
		if got.Len() != 0 || want.Len() != 0 {
			t.Errorf("value %v: wrote %d bytes (reference %d), want none", v, got.Len(), want.Len())
		}
	}
}

type failWriter struct{ writes int }

var errDiskFull = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errDiskFull
}

// TestWriteChromeStopsAtWriteError checks that the first write error
// is returned and that nothing is written after it.
func TestWriteChromeStopsAtWriteError(t *testing.T) {
	var spans []Span
	for i := range 5000 {
		spans = append(spans, Span{ID: ID(i + 1), Kind: KindDirLookup, Start: sim.Time(i), End: sim.Time(i + 1), Page: -1})
	}
	var w failWriter
	if err := WriteChrome(&w, spans); !errors.Is(err, errDiskFull) {
		t.Fatalf("error %v, want %v", err, errDiskFull)
	}
	if w.writes != 1 {
		t.Errorf("%d writes after the first failed, want none", w.writes-1)
	}
}

// TestAppendUsecMatchesFloat checks the integer timestamp formatter
// against encoding/json's rendering of usec(ns): at the edges of its
// exact range (|ns| < 10^15), beyond them, and on values of every
// magnitude and fraction in between.
func TestAppendUsecMatchesFloat(t *testing.T) {
	ns := []int64{0, 1, 5, 10, 99, 100, 105, 120, 999, 1000, 1001, 1010, 1100, 123456789,
		1e15 - 1, 1e15, 1e15 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	rng := uint64(1)
	for range 20000 {
		rng = rng*6364136223846793005 + 1442695040888963407
		ns = append(ns, int64(rng>>(rng%64))) // every magnitude up to 2^63
	}
	for _, v := range ns {
		for _, v := range []int64{v, -v} {
			want, err := json.Marshal(usec(v))
			if err != nil {
				t.Fatal(err)
			}
			if got := appendUsec(nil, v); !bytes.Equal(got, want) {
				t.Fatalf("appendUsec(%d) = %s, want %s", v, got, want)
			}
		}
	}
}

// TestAppendNoteMatchesSprintf checks that a lazy note renders as
// fmt.Sprintf renders it, whether the fast path takes it (one %d per
// argument) or fmt does (other verbs, %%, too few or too many verbs).
func TestAppendNoteMatchesSprintf(t *testing.T) {
	formats := []string{"module %d->%d", "%d probes", "thawed %d <", "%d", "%d%d", "no verbs",
		"100%", "%%d %d", "%x", "%5d", "a %d b %d c %d", "%d %s", "<&> \"%d\"", ""}
	for _, f := range formats {
		for n := uint8(0); n <= 2; n++ {
			sp := Span{NoteFmt: f, NoteArg0: -42, NoteArg1: 1 << 40, NoteN: n}
			want := fmt.Sprintf(f, sp.NoteArg0)
			if n == 2 {
				want = fmt.Sprintf(f, sp.NoteArg0, sp.NoteArg1)
			}
			if f == "" {
				want = "" // no lazy note at all
			}
			if got := string(sp.appendNote([]byte("x"))); got != "x"+want {
				t.Errorf("format %q with %d args: %q, want %q", f, n, got, "x"+want)
			}
			if got := sp.NoteText(); got != want {
				t.Errorf("format %q with %d args: NoteText %q, want %q", f, n, got, want)
			}
		}
	}
	if got := (&Span{Note: "literal", NoteFmt: "%d"}).NoteText(); got != "literal" {
		t.Errorf("a literal note renders as %q, want it to win over the lazy one", got)
	}
}
