package core

// atc models a processor's address translation cache (the MC68851's
// 64-entry ATC on the Butterfly Plus). It caches recently used
// virtual-to-physical translations; shootdowns invalidate or restrict
// entries through the same paths that update the Pmaps.
//
// The replacement policy is FIFO over a fixed-size ring, which is simple,
// deterministic, and close enough to the hardware's pseudo-random
// replacement for timing purposes.
//
// Residency is tracked in a chained hash table over a fixed entry pool
// rather than a Go map: the capacity is hardware-small (64 entries), so
// buckets stay near one entry each, and lookup — the hottest operation
// in the whole simulator after the scheduler — avoids the runtime's
// generic map machinery. The table is pure host-side plumbing; hits,
// misses and evictions are identical to the map implementation's, so
// simulated timing is unchanged.
type atc struct {
	cap int

	buckets []int32 // hash bucket -> pool index of chain head, -1 if empty
	mask    uint64  // len(buckets) - 1, len is a power of two
	pool    []atcEnt
	free    int32 // pool free-list head, -1 if exhausted

	ring []atcKey // FIFO of install slots; see the dead-slot invariant below
	head int
	// dead counts ring slots whose key was invalidated and not yet
	// reused: the slot stays in place (hardware does not compact its
	// replacement queue) and simply misses in the table. The invariant
	// the dead counter protects: a key occupies AT MOST ONE ring slot.
	// install revives a key's own dead slot in place, and an eviction
	// that lands on a dead slot costs dead-- instead of a remove — so a
	// stale slot can never evict a still-resident entry.
	dead int

	// Most-recently-hit entry, checked before the table. Pure host-side
	// memoization of a resident entry: it never holds a translation the
	// table does not, so hit/miss accounting — and therefore simulated
	// timing — is unchanged.
	mruKey atcKey
	mruVal pmapEntry
	mruOK  bool

	// Statistics.
	Hits      int64
	Misses    int64
	Evictions int64 // resident entries displaced by FIFO replacement
}

type atcKey struct {
	cmap int
	vpn  int64
}

// hash mixes the key into a bucket index. Any deterministic function
// works — collisions only lengthen a host-side chain, never change
// simulated behaviour.
func (k atcKey) hash() uint64 {
	h := uint64(k.vpn)*0x9e3779b97f4a7c15 ^ uint64(k.cmap)*0xbf58476d1ce4e5b9
	return h ^ (h >> 29)
}

type atcEnt struct {
	key  atcKey
	val  pmapEntry
	next int32 // chain link, -1 ends the chain
}

func newATC(capacity int) *atc {
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	a := &atc{
		cap:     capacity,
		buckets: make([]int32, nb),
		mask:    uint64(nb - 1),
		pool:    make([]atcEnt, capacity),
		ring:    make([]atcKey, 0, capacity),
	}
	a.unlinkAll()
	return a
}

// unlinkAll empties every bucket and threads the whole pool onto the
// free list.
func (a *atc) unlinkAll() {
	for i := range a.buckets {
		a.buckets[i] = -1
	}
	for i := range a.pool {
		a.pool[i].next = int32(i) - 1 // pool[0].next = -1 ends the list
	}
	a.free = int32(len(a.pool)) - 1
}

// reset empties the cache and zeroes its counters, keeping the table and
// ring storage. A reset atc behaves identically to a new one.
func (a *atc) reset() {
	a.unlinkAll()
	a.ring = a.ring[:0]
	a.head = 0
	a.dead = 0
	a.mruOK = false
	a.Hits = 0
	a.Misses = 0
	a.Evictions = 0
}

// find returns the pool index of k's entry, or -1.
func (a *atc) find(k atcKey) int32 {
	for i := a.buckets[k.hash()&a.mask]; i >= 0; i = a.pool[i].next {
		if a.pool[i].key == k {
			return i
		}
	}
	return -1
}

// remove unlinks k's entry and returns it to the free list, reporting
// whether k was resident.
func (a *atc) remove(k atcKey) bool {
	b := k.hash() & a.mask
	prev := int32(-1)
	for i := a.buckets[b]; i >= 0; i = a.pool[i].next {
		if a.pool[i].key == k {
			if prev < 0 {
				a.buckets[b] = a.pool[i].next
			} else {
				a.pool[prev].next = a.pool[i].next
			}
			a.pool[i].next = a.free
			a.free = i
			return true
		}
		prev = i
	}
	return false
}

// lookup returns the cached translation for (cmap, vpn), if resident.
func (a *atc) lookup(cmap int, vpn int64) (pmapEntry, bool) {
	k := atcKey{cmap, vpn}
	if a.mruOK && a.mruKey == k {
		a.Hits++
		return a.mruVal, true
	}
	if i := a.find(k); i >= 0 {
		a.Hits++
		pe := a.pool[i].val
		a.mruKey, a.mruVal, a.mruOK = k, pe, true
		return pe, true
	}
	a.Misses++
	return pmapEntry{}, false
}

// install caches a translation, evicting the oldest if full.
func (a *atc) install(cmap int, vpn int64, c Copy, rights Rights) {
	k := atcKey{cmap, vpn}
	pe := pmapEntry{copy: c, rights: rights}
	if i := a.find(k); i >= 0 {
		a.pool[i].val = pe
		if a.mruOK && a.mruKey == k {
			a.mruVal = pe
		}
		return
	}
	if a.dead > 0 && a.reviveDead(k) {
		// k's own invalidated slot is still in the ring: revive it in
		// place (keeping its original queue position) instead of
		// appending a duplicate whose later eviction would remove the
		// then-resident entry.
	} else if len(a.ring) < a.cap {
		a.ring = append(a.ring, k)
	} else {
		// Evict the slot at head; ring is full so head wraps FIFO-style.
		// A dead slot at head is free to reuse — its key is no longer
		// resident, so there is nothing to evict.
		old := a.ring[a.head]
		if a.remove(old) {
			a.Evictions++
			if a.mruOK && a.mruKey == old {
				a.mruOK = false
			}
		} else {
			a.dead--
		}
		a.ring[a.head] = k
		a.head = (a.head + 1) % a.cap
	}
	// The ring never holds more keys than the pool has entries, so after
	// any needed eviction the free list is non-empty.
	i := a.free
	a.free = a.pool[i].next
	b := k.hash() & a.mask
	a.pool[i] = atcEnt{key: k, val: pe, next: a.buckets[b]}
	a.buckets[b] = i
}

// reviveDead scans the ring for k's own dead slot and claims it,
// reporting success. Only a dead slot can hold k here: install already
// checked that k is not resident, and the dead-slot invariant says k
// appears at most once in the ring.
func (a *atc) reviveDead(k atcKey) bool {
	for i := range a.ring {
		if a.ring[i] == k {
			a.dead--
			return true
		}
	}
	return false
}

// invalidate drops the cached translation, if resident. The ring slot is
// left in place — dead — and simply misses in the table until reused.
func (a *atc) invalidate(cmap int, vpn int64) {
	k := atcKey{cmap, vpn}
	if a.mruOK && a.mruKey == k {
		a.mruOK = false
	}
	if a.remove(k) {
		a.dead++
	}
}

// restrict downgrades the cached translation to read-only, if resident.
func (a *atc) restrict(cmap int, vpn int64) {
	k := atcKey{cmap, vpn}
	if i := a.find(k); i >= 0 {
		a.pool[i].val.rights = Read
		if a.mruOK && a.mruKey == k {
			a.mruVal = a.pool[i].val
		}
	}
}

// ATCStats is a snapshot of one processor's ATC counters.
type ATCStats struct {
	Hits   int64
	Misses int64
}

// ATCStats returns hit and miss counters for every processor's ATC.
func (s *System) ATCStats() []ATCStats {
	out := make([]ATCStats, len(s.atcs))
	for i, a := range s.atcs {
		out[i] = ATCStats{Hits: a.Hits, Misses: a.Misses}
	}
	return out
}
