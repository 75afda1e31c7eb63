// Package timeseries implements windowed sampling over *simulated*
// time: a ring of dense per-column counters, one row per fixed-width
// window of virtual time, turning the simulator's exact charges and
// event streams into rate curves — fault rate, remote-reference
// fraction, freeze/defrost activity per window — so phase behaviour
// (a gauss pivot broadcast storm, a defrost sweep) is visible instead
// of averaged away.
//
// The package is deliberately generic and dependency-free: a Series is
// a ring of [cols]int64 rows, addressed by an int64 timestamp, and the
// caller defines what the columns mean (internal/sim feeds per-cause
// charged time; internal/span feeds per-operation event counts). That
// keeps internal/sim free to import it from the charge path without a
// cycle.
//
// Adding is pure bookkeeping on the recording thread — no allocation
// once constructed, no clock access, no yielding — so enabling a series
// cannot change dispatch order or any simulation result. The ring holds
// the most recent capWindows windows; older rows are evicted into a
// per-column spill accumulator rather than silently dropped, so the sum
// over retained windows plus spill always equals everything ever added
// (Total) — the series' own conservation property.
package timeseries

import "fmt"

// Series is one windowed counter set. Construct with New; the zero
// value is not usable.
type Series struct {
	width int64 // window width in virtual-time units (> 0)
	cols  int   // counters per window row
	capW  int   // ring capacity in windows

	data []int64 // ring storage, capW rows of cols, row r at data[r*cols:]

	// lo and hi bound the retained (and ever-seen) window index range:
	// rows exist for window indices [lo, hi]. Before the first Add both
	// are 0 and n distinguishes "nothing recorded".
	lo, hi int64
	n      int64 // values ever added

	// spill accumulates, per column, everything that fell off the ring:
	// rows evicted when the ring advanced and adds older than lo.
	// spilled counts evicted windows that held data (a nonzero
	// counter); empty windows leave without counting.
	spill   []int64
	spilled int64

	// Current-window cache for the Add fast path: while at stays inside
	// [curStart, curStart+width) the add is one compare and one indexed
	// store, with no divisions. curBase is the cached row's offset into
	// data. Charges cluster heavily within a window relative to the
	// window width, so this is the overwhelmingly common case.
	curStart int64
	curBase  int
}

// New returns a series of cols counters per window of the given width,
// retaining the most recent capWindows windows. width and cols must be
// positive; capWindows <= 0 selects a generous default (16384).
func New(width int64, cols, capWindows int) *Series {
	s := &Series{}
	s.Reconfigure(width, cols, capWindows)
	return s
}

// DefaultWindows is the ring capacity used when a caller passes
// capWindows <= 0.
const DefaultWindows = 16384

// Reconfigure resets the series for a new run with the given shape,
// reusing the backing storage when it is large enough — the pooled
// platforms' allocation-free reuse path. Parameters are validated as in
// New.
func (s *Series) Reconfigure(width int64, cols, capWindows int) {
	if width <= 0 {
		panic(fmt.Sprintf("timeseries: non-positive window width %d", width))
	}
	if cols <= 0 {
		panic(fmt.Sprintf("timeseries: non-positive column count %d", cols))
	}
	if capWindows <= 0 {
		capWindows = DefaultWindows
	}
	// Clear under the old geometry before it changes: clearUsed restores
	// the all-of-capacity-zero invariant, so re-slicing below only ever
	// exposes zeros even when the shape grows back after a shrink.
	s.clearUsed()
	s.width, s.cols, s.capW = width, cols, capWindows
	need := cols * capWindows
	if cap(s.data) < need {
		s.data = make([]int64, need)
	} else {
		s.data = s.data[:need]
	}
	if cap(s.spill) < cols {
		s.spill = make([]int64, cols)
	} else {
		s.spill = s.spill[:cols]
		clear(s.spill)
	}
	s.lo, s.hi, s.n, s.spilled = 0, 0, 0, 0
	// Prime the fast-path cache at window 0 (row 0 under any geometry).
	s.curStart, s.curBase = 0, 0
}

// clearUsed zeroes exactly the state the series has touched — the
// retained rows and the spill columns — restoring the invariant that
// every data slot outside the retained range is already zero (Add's
// eviction loop zeroes rows as they leave the ring, so only [lo, hi]
// can be dirty). The cost is proportional to windows actually
// populated, not ring capacity, which is what keeps per-run pooled
// reuse cheap when the default 16K-window ring is mostly idle.
func (s *Series) clearUsed() {
	if s.n != 0 || s.spilled != 0 {
		for w := s.lo; w <= s.hi; w++ {
			r := s.row(w)
			for c := range r {
				r[c] = 0
			}
		}
		clear(s.spill)
	}
	s.lo, s.hi, s.n, s.spilled = 0, 0, 0, 0
}

// Width returns the window width.
func (s *Series) Width() int64 { return s.width }

// row returns the storage row for window index w (which must be within
// [lo, hi] and retained).
func (s *Series) row(w int64) []int64 {
	r := int(w % int64(s.capW))
	return s.data[r*s.cols : (r+1)*s.cols]
}

// Add records v into column col of the window containing virtual time
// at (negative times clamp to 0). The ring advances as time does;
// windows that fall out of the retained range spill into the per-column
// accumulator, and adds older than the retained range spill directly —
// nothing is ever silently lost. Zero allocations; the advance loop
// zeroes at most the whole ring.
func (s *Series) Add(at int64, col int, v int64) {
	// Fast path: at falls in the cached current window — one unsigned
	// compare (negative at and at < curStart both wrap to huge values
	// and miss; curStart is never negative) and one store, no
	// divisions. Add stays small enough to inline into recording hot
	// paths; everything else lives in addSlow.
	if uint64(at-s.curStart) < uint64(s.width) {
		s.data[s.curBase+col] += v
		s.n++
		return
	}
	s.addSlow(at, col, v)
}

// addSlow handles adds outside the cached window: ring advance,
// eviction into spill, lagging-clock spills, and re-pointing the cache.
func (s *Series) addSlow(at int64, col int, v int64) {
	if at < 0 {
		at = 0
	}
	w := at / s.width
	if w > s.hi {
		// Advance the ring to cover w, evicting rows that fall out of
		// [w-capW+1, w]. Rows between hi and w that stay retained are
		// zeroed fresh windows.
		newLo := s.lo
		if w-int64(s.capW)+1 > newLo {
			newLo = w - int64(s.capW) + 1
		}
		// Only rows up to hi ever held data; windows skipped by a large
		// time jump were never populated and need no eviction, which
		// bounds this loop (and the zeroing below) at one ring's worth
		// of work regardless of how far time jumped.
		evictEnd := newLo
		if evictEnd > s.hi+1 {
			evictEnd = s.hi + 1
		}
		for old := s.lo; old < evictEnd; old++ {
			r := s.row(old)
			held := false
			for c, ov := range r {
				held = held || ov != 0
				s.spill[c] += ov
				r[c] = 0
			}
			if held {
				s.spilled++
			}
		}
		// Zero the not-previously-used rows entering the range. Skip
		// rows already cleared by the eviction loop above (ring slots
		// coincide when the jump exceeds the capacity).
		from := s.hi + 1
		if from < newLo {
			from = newLo
		}
		for fresh := from; fresh <= w; fresh++ {
			r := s.row(fresh)
			for c := range r {
				r[c] = 0
			}
		}
		s.lo, s.hi = newLo, w
	} else if w < s.lo {
		// Older than anything retained (a thread whose clock lags the
		// ring's horizon): spill, don't lose. The cache keeps pointing
		// at its (younger, retained) window.
		s.spill[col] += v
		s.n++
		return
	}
	// Re-point the fast-path cache at w's window before storing.
	s.curStart = w * s.width
	s.curBase = int(w%int64(s.capW)) * s.cols
	s.data[s.curBase+col] += v
	s.n++
}

// Empty reports whether nothing has been added.
func (s *Series) Empty() bool { return s.n == 0 }

// LoWindow returns the lowest retained window index.
func (s *Series) LoWindow() int64 { return s.lo }

// HiWindow returns the highest window index seen.
func (s *Series) HiWindow() int64 { return s.hi }

// At returns the counter for column col in window index w, or 0 when w
// is outside the retained range or s is nil.
func (s *Series) At(w int64, col int) int64 {
	if s == nil || s.n == 0 || w < s.lo || w > s.hi {
		return 0
	}
	return s.row(w)[col]
}

// WindowStart returns the virtual-time start of window index w.
func (s *Series) WindowStart(w int64) int64 { return w * s.width }

// SpilledWindows returns how many windows holding data were evicted
// from the ring. Empty windows, including the ring's initial window 0
// before any add reached it, do not count.
func (s *Series) SpilledWindows() int64 { return s.spilled }

// Total returns the exact sum of everything ever added to column col —
// retained windows plus spill. Conservation checks compare this against
// the independently-accumulated source totals.
func (s *Series) Total(col int) int64 {
	t := s.spill[col]
	if s.n > 0 {
		for w := s.lo; w <= s.hi; w++ {
			t += s.row(w)[col]
		}
	}
	return t
}

// Reset empties the series in place, keeping its shape and storage.
func (s *Series) Reset() { s.Reconfigure(s.width, s.cols, s.capW) }
