package timeseries

import (
	"math/rand"
	"testing"
)

// TestWindowing verifies values land in the window containing their
// timestamp and rows are dense per window.
func TestWindowing(t *testing.T) {
	s := New(10, 2, 8)
	s.Add(0, 0, 1)
	s.Add(9, 0, 2)  // same window
	s.Add(10, 1, 5) // next window
	s.Add(35, 0, 7)
	if got := s.At(0, 0); got != 3 {
		t.Errorf("window 0 col 0 = %d, want 3", got)
	}
	if got := s.At(1, 1); got != 5 {
		t.Errorf("window 1 col 1 = %d, want 5", got)
	}
	if got := s.At(2, 0); got != 0 {
		t.Errorf("window 2 col 0 = %d, want 0 (dense zero)", got)
	}
	if got := s.At(3, 0); got != 7 {
		t.Errorf("window 3 col 0 = %d, want 7", got)
	}
	if s.LoWindow() != 0 || s.HiWindow() != 3 {
		t.Errorf("retained range [%d,%d], want [0,3]", s.LoWindow(), s.HiWindow())
	}
	if s.WindowStart(3) != 30 {
		t.Errorf("WindowStart(3) = %d, want 30", s.WindowStart(3))
	}
}

// TestEviction verifies old windows spill rather than vanish when the
// ring wraps, and the spilled-window count tracks evictions.
func TestEviction(t *testing.T) {
	s := New(10, 1, 4)
	for w := int64(0); w < 10; w++ {
		s.Add(w*10, 0, 1)
	}
	if s.LoWindow() != 6 || s.HiWindow() != 9 {
		t.Errorf("retained range [%d,%d], want [6,9]", s.LoWindow(), s.HiWindow())
	}
	if s.SpilledWindows() != 6 {
		t.Errorf("SpilledWindows = %d, want 6", s.SpilledWindows())
	}
	var retained int64
	for w := s.LoWindow(); w <= s.HiWindow(); w++ {
		retained += s.At(w, 0)
	}
	if retained != 4 {
		t.Errorf("retained total = %d, want 4", retained)
	}
	if s.Total(0) != 10 {
		t.Errorf("Total = %d, want 10 (conservation)", s.Total(0))
	}
	// A straggler older than the retained range spills directly.
	s.Add(0, 0, 3)
	if s.Total(0) != 13 {
		t.Errorf("Total after late add = %d, want 13", s.Total(0))
	}
}

// TestLargeJump verifies a time jump far beyond the ring evicts only
// the populated rows (bounded work) and leaves a clean ring.
func TestLargeJump(t *testing.T) {
	s := New(10, 1, 4)
	s.Add(0, 0, 2)
	s.Add(10_000_000_000, 0, 5)
	w := int64(10_000_000_000 / 10)
	if s.HiWindow() != w {
		t.Errorf("HiWindow = %d, want %d", s.HiWindow(), w)
	}
	if s.At(w, 0) != 5 {
		t.Errorf("landing window = %d, want 5", s.At(w, 0))
	}
	if s.SpilledWindows() != 1 {
		t.Errorf("SpilledWindows = %d, want 1 (only the populated row)", s.SpilledWindows())
	}
	if s.Total(0) != 7 {
		t.Errorf("Total = %d, want 7", s.Total(0))
	}
	for i := int64(0); i < 3; i++ {
		if got := s.At(w-1-i, 0); got != 0 {
			t.Errorf("window %d = %d, want 0 (fresh rows zeroed)", w-1-i, got)
		}
	}
}

// TestConservationRandom fuzzes adds (including non-monotone
// timestamps) and checks the spill+retained total is exact.
func TestConservationRandom(t *testing.T) {
	s := New(7, 3, 16)
	rng := rand.New(rand.NewSource(99))
	want := [3]int64{}
	var atBase int64
	for i := 0; i < 10000; i++ {
		// Mostly-forward timestamps with occasional stragglers, like
		// thread clocks behind the dispatch horizon.
		atBase += rng.Int63n(5)
		at := atBase - rng.Int63n(40)
		if at < 0 {
			at = 0
		}
		col := rng.Intn(3)
		v := rng.Int63n(100)
		s.Add(at, col, v)
		want[col] += v
	}
	for c := 0; c < 3; c++ {
		if got := s.Total(c); got != want[c] {
			t.Errorf("Total(%d) = %d, want %d", c, got, want[c])
		}
	}
}

// TestReconfigureReuse verifies Reconfigure clears state while reusing
// storage, and Reset preserves the shape.
func TestReconfigureReuse(t *testing.T) {
	s := New(10, 2, 8)
	s.Add(5, 1, 9)
	s.Reset()
	if !s.Empty() || s.HiWindow() != 0 || s.Total(1) != 0 {
		t.Errorf("Reset left residue: hi=%d total=%d", s.HiWindow(), s.Total(1))
	}
	s.Reconfigure(5, 1, 4)
	s.Add(21, 0, 2)
	if s.Width() != 5 {
		t.Errorf("Reconfigure width = %d, want 5", s.Width())
	}
	if got := s.At(4, 0); got != 2 {
		t.Errorf("window 4 = %d, want 2", got)
	}
	s.Add(35, 0, 1) // window 7: a 4-window ring retains [4,7]
	if s.LoWindow() != 4 || s.HiWindow() != 7 {
		t.Errorf("after Reconfigure to 4 windows: retained [%d,%d], want [4,7]", s.LoWindow(), s.HiWindow())
	}
	// No added value left the ring: the empty windows the advances
	// passed over are not evictions.
	if got := s.SpilledWindows(); got != 0 {
		t.Errorf("SpilledWindows = %d, want 0", got)
	}
}

// TestAddZeroAllocSteadyState verifies Add never allocates, including
// across ring wraps.
func TestAddZeroAllocSteadyState(t *testing.T) {
	s := New(10, 4, 8)
	at := int64(0)
	got := testing.AllocsPerRun(2000, func() {
		at += 7
		s.Add(at, int(at)%4, 3)
	})
	if got != 0 {
		t.Errorf("Add allocates %v per op, want 0", got)
	}
}
