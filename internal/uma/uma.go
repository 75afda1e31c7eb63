// Package uma simulates a bus-based Uniform Memory Access multiprocessor
// of the Sequent Symmetry (model A) class: uniform shared memory on a
// single snooping bus, with a small private write-through cache per
// processor.
//
// It exists as the comparison machine for the paper's merge-sort study
// (§5.2, Fig. 5): Anderson ran the same tree merge sort on a Symmetry
// with 8 KB write-through caches, and the paper attributes PLATINUM's
// better speedup to the Symmetry's small cache (no reuse across merge
// phases) and write-through policy (every store is a bus transaction).
// Both properties are modeled here; the bus serializes transactions the
// same way the NUMA machine's memory modules do.
//
// The model A Symmetry's write-through cache has no write buffer: every
// store stalls the processor for a full bus transaction (writeLatency),
// and occupies the bus for writeBusOcc — write traffic both slows each
// processor and saturates the bus as processors are added. (Anderson's
// merge-sort study singled out exactly this property.)
package uma

import (
	"fmt"

	"platinum/internal/sim"
)

// The machine: a 16-processor model A Symmetry with an 8 KB
// direct-mapped write-through cache of 4-word lines per processor.
const (
	// Procs is the machine's processor count.
	Procs      = 16
	cacheBytes = 8192
	lineWords  = 4                            // cache line size in 32-bit words
	cacheLines = cacheBytes / (4 * lineWords) // sets per (direct-mapped) cache

	hitTime      = 250 * sim.Nanosecond  // cache-hit read
	missLatency  = 1500 * sim.Nanosecond // read miss: bus arbitration + memory
	missBusOcc   = 600 * sim.Nanosecond  // bus occupancy per line fill
	writeLatency = 1200 * sim.Nanosecond // processor stall per write-through
	writeBusOcc  = 300 * sim.Nanosecond  // bus occupancy per word written through
	atomicTime   = 2000 * sim.Nanosecond // locked read-modify-write latency
	atomicBusOcc = 600 * sim.Nanosecond  // bus occupancy of a locked RMW
)

// cache is a direct-mapped write-through cache: c[i] holds the line
// address resident in set i, or -1.
type cache [cacheLines]int64

func newCache() *cache {
	c := new(cache)
	for i := range c {
		c[i] = -1
	}
	return c
}

func (c *cache) lookup(line int64) bool { return c[line%cacheLines] == line }

func (c *cache) fill(line int64) { c[line%cacheLines] = line }
func (c *cache) invalidate(line int64) {
	if i := line % cacheLines; c[i] == line {
		c[i] = -1
	}
}

// Machine is the simulated UMA multiprocessor.
type Machine struct {
	engine *sim.Engine
	memory []uint32
	caches [Procs]*cache

	busUntil  sim.Time
	nextAlloc int64
}

// New builds the UMA machine on engine e.
func New(e *sim.Engine) *Machine {
	m := &Machine{engine: e}
	for i := range m.caches {
		m.caches[i] = newCache()
	}
	return m
}

// Engine returns the simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.engine }

// Alloc reserves nwords words of shared memory and returns the base
// address. Setup-time only; costs nothing.
func (m *Machine) Alloc(nwords int) int64 {
	base := m.nextAlloc
	m.nextAlloc += int64(nwords)
	if need := int(m.nextAlloc); need > len(m.memory) {
		grown := make([]uint32, need)
		copy(grown, m.memory)
		m.memory = grown
	}
	return base
}

// bus charges one bus transaction starting no earlier than now, with the
// given occupancy, and returns the queueing delay experienced.
func (m *Machine) bus(now sim.Time, occ sim.Time) sim.Time {
	start := now
	if m.busUntil > start {
		start = m.busUntil
	}
	wait := start - now
	m.busUntil = start + occ
	return wait
}

// Thread is a processor-bound thread on the UMA machine.
type Thread struct {
	m    *Machine
	st   *sim.Thread
	proc int
}

// Spawn creates a thread bound to processor proc.
func (m *Machine) Spawn(name string, proc int, body func(*Thread)) *Thread {
	if proc < 0 || proc >= Procs {
		panic(fmt.Sprintf("uma: Spawn on bad processor %d", proc))
	}
	t := &Thread{m: m, proc: proc}
	t.st = m.engine.Spawn(name, func(st *sim.Thread) {
		st.BindNode(proc)
		body(t)
	})
	return t
}

// Run drains the engine.
func (m *Machine) Run() error { return m.engine.Run() }

// Compute charges pure processor time.
func (t *Thread) Compute(d sim.Time) { t.st.Charge(sim.CauseCompute, d) }

// readCost accounts one word read at va relative to a running cursor.
// It returns the added delay and how much of it was queueing for the
// bus (zero on a cache hit).
func (t *Thread) readCost(va int64, cur sim.Time) (delay, wait sim.Time) {
	line := va / lineWords
	c := t.m.caches[t.proc]
	if c.lookup(line) {
		return hitTime, 0
	}
	wait = t.m.bus(cur, missBusOcc)
	c.fill(line)
	return wait + missLatency, wait
}

// writeCost accounts one word written through at va, returning the
// delay and its bus-queueing component.
func (t *Thread) writeCost(va int64, cur sim.Time) (delay, wait sim.Time) {
	line := va / lineWords
	wait = t.m.bus(cur, writeBusOcc)
	// Snoop: invalidate every other cache's copy of the line.
	for p, c := range t.m.caches {
		if p != t.proc {
			c.invalidate(line)
		}
	}
	// Write-through no-allocate: the writer's own cache is unchanged.
	return wait + writeLatency, wait
}

// chargeAccess attributes and charges one burst: queueing for the bus
// under CauseQueue, the rest as (uniform) local access latency.
func (t *Thread) chargeAccess(d, wait sim.Time) {
	t.st.Attribute(sim.CauseQueue, wait)
	t.st.Attribute(sim.CauseLocalAccess, d-wait)
	t.st.Advance(d)
}

// Read returns the word at va.
func (t *Thread) Read(va int64) uint32 {
	d, wait := t.readCost(va, t.st.Now())
	v := t.m.memory[va]
	t.chargeAccess(d, wait)
	return v
}

// Write stores v at va.
func (t *Thread) Write(va int64, v uint32) {
	d, wait := t.writeCost(va, t.st.Now())
	t.m.memory[va] = v
	t.chargeAccess(d, wait)
}

// ReadRange fills dst from va onward, charging per-word cache/bus costs
// but advancing the clock once (the range is treated as one burst).
func (t *Thread) ReadRange(va int64, dst []uint32) {
	cur := t.st.Now()
	var d, wait sim.Time
	for i := range dst {
		di, wi := t.readCost(va+int64(i), cur+d)
		d += di
		wait += wi
	}
	copy(dst, t.m.memory[va:va+int64(len(dst))])
	t.chargeAccess(d, wait)
}

// WriteRange stores src at va onward as one burst.
func (t *Thread) WriteRange(va int64, src []uint32) {
	cur := t.st.Now()
	var d, wait sim.Time
	for i := range src {
		di, wi := t.writeCost(va+int64(i), cur+d)
		d += di
		wait += wi
	}
	copy(t.m.memory[va:va+int64(len(src))], src)
	t.chargeAccess(d, wait)
}

// AtomicAdd performs a locked read-modify-write.
func (t *Thread) AtomicAdd(va int64, delta uint32) uint32 {
	wait := t.m.bus(t.st.Now(), atomicBusOcc)
	line := va / lineWords
	for p, c := range t.m.caches {
		if p != t.proc {
			c.invalidate(line)
		}
	}
	t.m.memory[va] += delta
	v := t.m.memory[va]
	t.chargeAccess(wait+atomicTime, wait)
	return v
}

// WaitAtLeast spins until the word at va is >= target, polling with
// exponential backoff.
func (t *Thread) WaitAtLeast(va int64, target uint32) uint32 {
	backoff := 2 * sim.Microsecond
	for {
		v := t.Read(va)
		if v >= target {
			return v
		}
		t.st.Charge(sim.CauseSync, backoff)
		if backoff < 64*sim.Microsecond {
			backoff *= 2
		}
	}
}
