package procset

import (
	"math/rand"
	"testing"
)

// TestSmallStaysInline checks that sets over processors 0..63 never
// allocate overflow words.
func TestSmallStaysInline(t *testing.T) {
	var s Set
	for i := 0; i < 64; i++ {
		s.Add(i)
	}
	if s.hi != nil {
		t.Fatalf("overflow words allocated for members < 64")
	}
	if got := s.Count(); got != 64 {
		t.Fatalf("Count = %d, want 64", got)
	}
	if s.lo != ^uint64(0) {
		t.Fatalf("lo = %x, want all ones", s.lo)
	}
}

// TestNegativeProbes checks that negative indices are simply absent.
func TestNegativeProbes(t *testing.T) {
	var s Set
	if s.Has(-1) {
		t.Error("Has(-1) on empty set")
	}
	s.Del(-5) // must not panic
	s.Add(3)
	if s.Has(-1) || !s.Has(3) {
		t.Error("negative probe perturbed membership")
	}
}

// TestAssignOne checks the sole-writer transition across the word
// boundary.
func TestAssignOne(t *testing.T) {
	var s Set
	s.Add(7)
	s.Add(700)
	s.AssignOne(130)
	if s.Count() != 1 || !s.Has(130) || s.Has(7) || s.Has(700) {
		t.Fatalf("AssignOne(130) left wrong members")
	}
	s.AssignOne(2)
	if s.Count() != 1 || !s.Has(2) {
		t.Fatalf("AssignOne(2) left wrong members")
	}
}

// TestAgainstReference drives a Set and a map[int]bool through the same
// random operation sequence over a 1500-processor universe (spanning
// the inline word and several overflow words) and requires identical
// membership, count, and emptiness at every step.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const universe = 1500
	var s Set
	ref := map[int]bool{}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(universe)
		switch rng.Intn(5) {
		case 0, 1:
			s.Add(i)
			ref[i] = true
		case 2:
			s.Del(i)
			delete(ref, i)
		case 3:
			if s.Has(i) != ref[i] {
				t.Fatalf("step %d: Has(%d) = %v, ref %v", step, i, s.Has(i), ref[i])
			}
		case 4:
			if rng.Intn(50) == 0 {
				s.Clear()
				clear(ref)
			} else if rng.Intn(50) == 1 {
				s.AssignOne(i)
				clear(ref)
				ref[i] = true
			}
		}
		if s.Count() != len(ref) {
			t.Fatalf("step %d: Count = %d, ref %d", step, s.Count(), len(ref))
		}
		if s.Empty() != (len(ref) == 0) {
			t.Fatalf("step %d: Empty = %v, ref %d members", step, s.Empty(), len(ref))
		}
	}
	// Final full sweep.
	for i := 0; i < universe; i++ {
		if s.Has(i) != ref[i] {
			t.Fatalf("final: Has(%d) = %v, ref %v", i, s.Has(i), ref[i])
		}
	}
	// lo must equal the reference's low word.
	var lo uint64
	for i := 0; i < 64; i++ {
		if ref[i] {
			lo |= 1 << uint(i)
		}
	}
	if s.lo != lo {
		t.Fatalf("lo = %x, ref %x", s.lo, lo)
	}
}
