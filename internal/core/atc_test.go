package core

import (
	"math/rand"
	"testing"
)

// Regression for the duplicate-ring-slot bug: invalidate left the key's
// FIFO slot in place (dead), and a reinstall of the same key appended a
// SECOND slot for it. When replacement later wrapped around to the
// stale slot, it found the still-resident entry — installed only
// a few misses earlier through the newer slot — and evicted it early.
// The fix revives the key's own dead slot in place, so a key never
// occupies two slots and a dead slot can never evict a live entry.
func TestATCReinstallAfterInvalidateSurvivesEviction(t *testing.T) {
	a := newATC(4)
	install := func(vpn int64) { a.install(0, vpn, Copy{}, Read) }
	for vpn := int64(1); vpn <= 4; vpn++ {
		install(vpn) // ring full: [1 2 3 4]
	}
	a.invalidate(0, 3) // slot for 3 goes dead
	install(3)         // must revive the dead slot, not append a duplicate
	// Fill to eviction with fresh keys: FIFO should displace 1 and 2,
	// the oldest residents — never 3, which was just reinstalled.
	install(5)
	install(6)
	if _, ok := a.lookup(0, 3); !ok {
		t.Fatal("reinstalled entry evicted early by its own stale ring slot")
	}
	for _, vpn := range []int64{4, 5, 6} {
		if _, ok := a.lookup(0, vpn); !ok {
			t.Errorf("vpn %d missing, want resident", vpn)
		}
	}
	for _, vpn := range []int64{1, 2} {
		if _, ok := a.lookup(0, vpn); ok {
			t.Errorf("vpn %d resident, want FIFO-evicted", vpn)
		}
	}
	if a.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2 (keys 1 and 2)", a.Evictions)
	}
}

// naiveATC is the reference implementation of the documented ATC
// semantics — a Go map for residency plus a plain slice for the FIFO
// ring, with none of the slot store's chained hash or MRU memo.
// Invariants: invalidation leaves the slot dead in place; reinstalling
// a key revives its own dead slot (keeping its queue position);
// replacement at a dead slot evicts nothing.
type naiveATC struct {
	cap  int
	m    map[atcKey]pmapEntry
	ring []atcKey
	head int

	hits, misses, evictions int64
}

func newNaiveATC(capacity int) *naiveATC {
	return &naiveATC{cap: capacity, m: make(map[atcKey]pmapEntry)}
}

func (n *naiveATC) lookup(cmap int, vpn int64) (pmapEntry, bool) {
	pe, ok := n.m[atcKey{cmap, vpn}]
	if ok {
		n.hits++
	} else {
		n.misses++
	}
	return pe, ok
}

func (n *naiveATC) install(cmap int, vpn int64, c Copy, rights Rights) {
	k := atcKey{cmap, vpn}
	pe := pmapEntry{copy: c, rights: rights}
	if _, ok := n.m[k]; ok {
		n.m[k] = pe
		return
	}
	for _, rk := range n.ring {
		if rk == k { // k's own dead slot: revive in place
			n.m[k] = pe
			return
		}
	}
	if len(n.ring) < n.cap {
		n.ring = append(n.ring, k)
	} else {
		old := n.ring[n.head]
		if _, ok := n.m[old]; ok {
			delete(n.m, old)
			n.evictions++
		}
		n.ring[n.head] = k
		n.head = (n.head + 1) % n.cap
	}
	n.m[k] = pe
}

func (n *naiveATC) invalidate(cmap int, vpn int64) {
	delete(n.m, atcKey{cmap, vpn})
}

func (n *naiveATC) restrict(cmap int, vpn int64) {
	k := atcKey{cmap, vpn}
	if pe, ok := n.m[k]; ok {
		pe.rights = Read
		n.m[k] = pe
	}
}

// Differential test: the slot-store atc must agree with the naive
// reference on every lookup result and on the hit/miss/eviction
// counters at every step, across randomized seeded workloads, at the
// hardware's order of capacity and at the 1- and 2-entry sizes where
// every install replaces. Resets start both sides over, as a pooled
// platform's ATC does between runs. This enforces — rather than asserts
// in a comment — that the host-side plumbing (the chained hash over the
// slots, the MRU memo, dead slots kept in place) never changes
// simulated behaviour.
func TestATCDifferentialAgainstNaive(t *testing.T) {
	const (
		ops   = 5000
		cmaps = 3
	)
	for _, capacity := range []int{1, 2, 8} {
		vpns := 3 * capacity // 3x capacity: plenty of conflict
		for _, seed := range []int64{1, 7, 42, 1989} {
			rng := rand.New(rand.NewSource(seed))
			a := newATC(capacity)
			ref := newNaiveATC(capacity)
			for i := 0; i < ops; i++ {
				cm := rng.Intn(cmaps)
				vpn := int64(rng.Intn(vpns))
				switch op := rng.Intn(100); {
				case op < 40: // lookup
					got, gok := a.lookup(cm, vpn)
					want, wok := ref.lookup(cm, vpn)
					if gok != wok || got != want {
						t.Fatalf("capacity %d seed %d op %d: lookup(%d,%d) = (%v,%v), reference (%v,%v)",
							capacity, seed, i, cm, vpn, got, gok, want, wok)
					}
				case op < 70: // install
					c := Copy{Module: rng.Intn(4), Frame: rng.Intn(16)}
					rights := Read
					if rng.Intn(2) == 1 {
						rights |= Write
					}
					a.install(cm, vpn, c, rights)
					ref.install(cm, vpn, c, rights)
				case op < 90: // invalidate
					a.invalidate(cm, vpn)
					ref.invalidate(cm, vpn)
				case op < 99: // restrict
					a.restrict(cm, vpn)
					ref.restrict(cm, vpn)
				default: // reset
					a.reset()
					ref = newNaiveATC(capacity)
				}
				if a.Hits != ref.hits || a.Misses != ref.misses || a.Evictions != ref.evictions {
					t.Fatalf("capacity %d seed %d op %d: counters hits/misses/evictions = %d/%d/%d, reference %d/%d/%d",
						capacity, seed, i, a.Hits, a.Misses, a.Evictions, ref.hits, ref.misses, ref.evictions)
				}
			}
			// Full sweep: residency must agree key-for-key at the end.
			for cm := 0; cm < cmaps; cm++ {
				for vpn := int64(0); vpn < int64(vpns); vpn++ {
					_, gok := a.lookup(cm, vpn)
					_, wok := ref.lookup(cm, vpn)
					if gok != wok {
						t.Fatalf("capacity %d seed %d: final residency of (%d,%d) = %v, reference %v",
							capacity, seed, cm, vpn, gok, wok)
					}
				}
			}
		}
	}
}
