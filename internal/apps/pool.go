package apps

// Platform pooling: the experiment harness runs thousands of
// independent simulations, each of which used to boot a fresh kernel —
// rebuilding the engine, physical memory, ATCs and span recorder from
// scratch every run. A finished PLATINUM kernel can instead be Reset in
// place (see kernel.Reset), which retains every buffer and free list
// the previous run grew: reusing one platform per configuration drives
// per-run setup allocations down by an order of magnitude.
//
// Pooling is behaviour-preserving by construction — a reset kernel runs
// any workload bit-for-bit identically to a freshly booted one — and
// SetPooling(false) provides the reference mode that the determinism
// tests A/B against.

import (
	"sync"

	"platinum/internal/kernel"
)

// poolingEnabled gates platform reuse; see SetPooling.
var poolingEnabled = true

// SetPooling sets whether AcquirePlatform reuses reset platforms from
// the pool (the default) or boots a fresh kernel every time (the
// reference mode for A/B determinism tests), returning the previous
// setting. Turning pooling off also empties the pool, so a subsequent
// re-enable cannot resurrect platforms acquired under different
// expectations. Safe to call from tests around parallel runs: the pool
// itself is mutex-guarded, though the flag flip should happen while no
// runs are in flight.
func SetPooling(on bool) bool {
	platformPool.mu.Lock()
	defer platformPool.mu.Unlock()
	prev := poolingEnabled
	poolingEnabled = on
	if !on {
		clear(platformPool.free)
	}
	return prev
}

// platformPool holds reset PLATINUM platforms by the config they booted
// with, then by the caller's key. The mutex only guards the pool itself
// — acquired platforms are exclusively owned until released, so runs
// proceed without locking.
var platformPool struct {
	mu   sync.Mutex
	free map[kernel.Config]map[string][]*PlatinumPlatform
}

// maxPooledPerKey bounds how many idle platforms one configuration
// retains — enough for every worker of a -j run to hold one, without
// hoarding memory after a wide sweep narrows.
const maxPooledPerKey = 32

// AcquirePlatform returns a PLATINUM platform booted with cfg: a pooled
// one, reset and re-wrapped, when pooling is on and one is free under
// cfg and key, otherwise a freshly booted kernel. The pool files each
// platform under the config itself, which compares its Topology and
// Policy pointers by identity, so platforms of two configs never mix
// whatever their keys. The key only separates callers that must not
// share the platforms of one config: different programs (a platform
// keeps the buffers its last run grew) or different instrumentation.
// Release the platform with ReleasePlatform after a successful run so
// the next acquisition can reuse it.
func AcquirePlatform(key string, cfg kernel.Config) (*PlatinumPlatform, error) {
	platformPool.mu.Lock()
	var pl *PlatinumPlatform
	if poolingEnabled {
		byKey := platformPool.free[cfg]
		if free := byKey[key]; len(free) > 0 {
			pl = free[len(free)-1]
			free[len(free)-1] = nil
			byKey[key] = free[:len(free)-1]
		}
	}
	platformPool.mu.Unlock()
	if pl != nil {
		pl.Reset()
		return pl, nil
	}
	return NewPlatinumPlatform(cfg)
}

// ReleasePlatform returns a platform acquired with AcquirePlatform to
// the pool, under the config it booted with and the same key. Call it
// only after a successful run: a platform whose run failed mid-way may
// hold threads the engine cannot Reset past, so error paths simply drop
// the platform. A release while pooling is off (or the per-key bound is
// reached) discards the platform.
func ReleasePlatform(key string, pl *PlatinumPlatform) {
	if pl == nil {
		return
	}
	platformPool.mu.Lock()
	defer platformPool.mu.Unlock()
	if !poolingEnabled {
		return
	}
	byKey := platformPool.free[pl.cfg]
	if byKey == nil {
		if platformPool.free == nil {
			platformPool.free = make(map[kernel.Config]map[string][]*PlatinumPlatform)
		}
		byKey = make(map[string][]*PlatinumPlatform)
		platformPool.free[pl.cfg] = byKey
	}
	if len(byKey[key]) >= maxPooledPerKey {
		return
	}
	byKey[key] = append(byKey[key], pl)
}

// Reset returns the platform to its just-booted state — the kernel
// resets in place and a fresh (id 0) address space replaces the old one
// — so the next workload runs bit-for-bit as on a new platform. Only
// valid after Run has returned.
func (p *PlatinumPlatform) Reset() {
	p.K.Reset()
	p.Sp = p.K.NewSpace()
}
