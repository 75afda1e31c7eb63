// Package procset implements the processor sets the coherent memory
// protocol keeps per page and per mapping: the writer set, the
// reference mask, and the shootdown and Cmap message target sets.
//
// Historically these were bare uint64 bitmasks, which silently broke on
// machines with more than 64 nodes (a Go shift by >= 64 yields zero, so
// bits for high processors vanished). Set keeps the first 64 processors
// in one inline word — machines up to 64 nodes never allocate and pay
// one branch over the raw mask — and spills higher processors into
// overflow words allocated on demand, so the generalized-topology
// sweeps (256, 1024 nodes) run the identical protocol.
//
// The zero Set is empty and ready to use. Sets are value types; copying
// a Set that has overflow words aliases them, so treat a copied Set as
// a snapshot to read or consume, not a fork to mutate independently.
package procset

import "math/bits"

// Set is a set of processor (equivalently, node or module) indices.
// The zero value is the empty set.
type Set struct {
	lo uint64   // members 0..63
	hi []uint64 // members 64..: word w holds 64+64*w .. 127+64*w
}

// Has reports whether i is a member. Negative or huge indices are
// simply absent, so callers can probe without range-checking.
func (s *Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	if i < 64 {
		return s.lo&(1<<uint(i)) != 0
	}
	w := (i - 64) >> 6
	if w >= len(s.hi) {
		return false
	}
	return s.hi[w]&(1<<uint(i&63)) != 0
}

// Add inserts i (i must be non-negative). Overflow words are grown on
// demand; machines with at most 64 processors never allocate.
func (s *Set) Add(i int) {
	if i < 64 {
		s.lo |= 1 << uint(i)
		return
	}
	w := (i - 64) >> 6
	for len(s.hi) <= w {
		s.hi = append(s.hi, 0)
	}
	s.hi[w] |= 1 << uint(i&63)
}

// Del removes i if present.
func (s *Set) Del(i int) {
	if i < 0 {
		return
	}
	if i < 64 {
		s.lo &^= 1 << uint(i)
		return
	}
	w := (i - 64) >> 6
	if w < len(s.hi) {
		s.hi[w] &^= 1 << uint(i&63)
	}
}

// Clear empties the set, keeping any overflow capacity for reuse.
func (s *Set) Clear() {
	s.lo = 0
	for i := range s.hi {
		s.hi[i] = 0
	}
}

// AssignOne empties the set and inserts exactly i — the protocol's
// "this processor is now the sole writer" transition.
func (s *Set) AssignOne(i int) {
	s.Clear()
	s.Add(i)
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	if s.lo != 0 {
		return false
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of members.
func (s *Set) Count() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}
