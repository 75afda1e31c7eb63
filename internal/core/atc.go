package core

// atc models a processor's address translation cache (the MC68851's
// 64-entry ATC on the Butterfly Plus). It caches recently used
// virtual-to-physical translations; shootdowns invalidate or restrict
// entries through the same paths that update the Pmaps.
//
// The cache is a fixed array of slots replaced in FIFO order, which is
// simple, deterministic, and close enough to the hardware's
// pseudo-random replacement for timing purposes. A slot keeps its key
// until replacement reaches it: invalidation only clears the slot's
// live bit (hardware does not compact its replacement queue), and
// reinstalling the key revives that slot in its queue position. A
// chained hash over the slots finds a key's slot, live or dead, so a key
// holds at most one slot by construction, and a dead slot's replacement
// never evicts a live entry.
//
// The hash stands in for a Go map: the capacity is hardware-small, so
// chains stay near one slot each, and lookup — the hottest operation in
// the whole simulator after the scheduler — avoids the runtime's generic
// map machinery. Hits, misses and evictions are those of a map plus a
// FIFO of keys, so simulated timing does not depend on it.
type atc struct {
	// An MRU hit reads only slots, mru and Hits: at the front they mostly
	// share a cache line (topomix-256: about 4% faster, 2-vCPU Xeon).
	slots []atcSlot // FIFO order; head is the next slot to replace
	mru   int32     // slot of the latest hit, checked before the hash

	// Statistics.
	Hits      int64
	Misses    int64
	Evictions int64 // live entries displaced by FIFO replacement

	head    int
	buckets []int32 // hash bucket -> slot index of chain head, -1 if empty
	mask    uint64  // len(buckets) - 1, len is a power of two
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

// atcSlot is one cache entry. A slot not used since reset is dead and on
// no chain.
type atcSlot struct {
	key  atcKey
	val  pmapEntry
	live bool
	next int32 // chain link, -1 ends the chain
}

func newATC(capacity int) *atc {
	nb := 1
	for nb < 2*capacity {
		nb <<= 1
	}
	a := &atc{slots: make([]atcSlot, capacity), buckets: make([]int32, nb), mask: uint64(nb - 1)}
	a.reset()
	return a
}

// reset empties the cache and zeroes its counters, keeping its storage.
// A reset atc behaves identically to a new one.
func (a *atc) reset() {
	clear(a.slots)
	for i := range a.buckets {
		a.buckets[i] = -1
	}
	*a = atc{slots: a.slots, buckets: a.buckets, mask: a.mask}
}

// find returns the index of k's slot, live or dead, or -1.
func (a *atc) find(k atcKey) int32 {
	for i := a.buckets[k.hash()&a.mask]; i >= 0; i = a.slots[i].next {
		if a.slots[i].key == k {
			return i
		}
	}
	return -1
}

// lookup returns the cached translation for (cmap, vpn), if live.
func (a *atc) lookup(cmap int, vpn int64) (pmapEntry, bool) {
	k := atcKey{cmap, vpn}
	// The MRU needs no upkeep: a live slot holding k is k's one slot.
	if s := &a.slots[a.mru]; s.live && s.key == k {
		a.Hits++
		return s.val, true
	}
	if i := a.find(k); i >= 0 && a.slots[i].live {
		a.Hits++
		a.mru = i
		return a.slots[i].val, true
	}
	a.Misses++
	return pmapEntry{}, false
}

// install caches a translation in the key's own slot, live or dead, or
// else in the slot at head, displacing that slot's key: an eviction if
// the slot was live.
func (a *atc) install(cmap int, vpn int64, c Copy, rights Rights) {
	k := atcKey{cmap, vpn}
	i := a.find(k)
	if i < 0 {
		i = int32(a.head)
		a.head = (a.head + 1) % len(a.slots)
		if a.slots[i].live {
			a.Evictions++
		}
		a.unlink(i)
		b := k.hash() & a.mask
		a.slots[i].key, a.slots[i].next = k, a.buckets[b]
		a.buckets[b] = i
	}
	a.slots[i].val, a.slots[i].live = pmapEntry{copy: c, rights: rights}, true
}

// unlink takes slot i off its key's chain, if it is on one.
func (a *atc) unlink(i int32) {
	for p := &a.buckets[a.slots[i].key.hash()&a.mask]; *p >= 0; p = &a.slots[*p].next {
		if *p == i {
			*p = a.slots[i].next
			return
		}
	}
}

// invalidate kills the cached translation, if live. Its slot keeps the
// key until replacement reaches it or the key is reinstalled.
func (a *atc) invalidate(cmap int, vpn int64) {
	if i := a.find(atcKey{cmap, vpn}); i >= 0 {
		a.slots[i].live = false
	}
}

// restrict downgrades the cached translation to read-only, if live.
func (a *atc) restrict(cmap int, vpn int64) {
	if i := a.find(atcKey{cmap, vpn}); i >= 0 && a.slots[i].live {
		a.slots[i].val.rights = Read
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
