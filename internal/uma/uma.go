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
// store stalls the processor for a full bus transaction (WriteLatency),
// and occupies the bus for WriteBusOcc — write traffic both slows each
// processor and saturates the bus as processors are added. (Anderson's
// merge-sort study singled out exactly this property.)
package uma

import (
	"fmt"

	"platinum/internal/sim"
)

// Config holds the UMA machine's cost parameters.
type Config struct {
	Procs      int
	CacheBytes int // per-processor cache size (Symmetry model A: 8 KB)
	LineWords  int // cache line size in 32-bit words

	HitTime      sim.Time // cache-hit read
	MissLatency  sim.Time // read miss: bus arbitration + memory
	MissBusOcc   sim.Time // bus occupancy per line fill
	WriteLatency sim.Time // processor stall per (buffered) write-through
	WriteBusOcc  sim.Time // bus occupancy per word written through
	AtomicTime   sim.Time // locked read-modify-write latency
	AtomicBusOcc sim.Time // bus occupancy of a locked RMW
}

// DefaultConfig returns a 16-processor Symmetry-class configuration.
func DefaultConfig() Config {
	return Config{
		Procs:        16,
		CacheBytes:   8192,
		LineWords:    4,
		HitTime:      250 * sim.Nanosecond,
		MissLatency:  1500 * sim.Nanosecond,
		MissBusOcc:   600 * sim.Nanosecond,
		WriteLatency: 1200 * sim.Nanosecond,
		WriteBusOcc:  300 * sim.Nanosecond,
		AtomicTime:   2000 * sim.Nanosecond,
		AtomicBusOcc: 600 * sim.Nanosecond,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.CacheBytes <= 0 || c.LineWords <= 0 {
		return fmt.Errorf("uma: invalid geometry %+v", c)
	}
	if c.CacheBytes/(4*c.LineWords) == 0 {
		return fmt.Errorf("uma: cache smaller than one line")
	}
	return nil
}

// cache is a direct-mapped write-through cache: tags[i] holds the line
// address resident in set i, or -1.
type cache struct {
	tags  []int64
	nsets int64

	Hits   int64
	Misses int64
}

func newCache(cfg Config) *cache {
	n := cfg.CacheBytes / (4 * cfg.LineWords)
	c := &cache{tags: make([]int64, n), nsets: int64(n)}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

func (c *cache) lookup(line int64) bool {
	if c.tags[line%c.nsets] == line {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

func (c *cache) fill(line int64) { c.tags[line%c.nsets] = line }
func (c *cache) invalidate(line int64) {
	if i := line % c.nsets; c.tags[i] == line {
		c.tags[i] = -1
	}
}

// Machine is the simulated UMA multiprocessor.
type Machine struct {
	cfg    Config
	engine *sim.Engine
	memory []uint32
	caches []*cache

	busUntil sim.Time
	BusBusy  sim.Time // total bus occupancy (stats)
	BusWait  sim.Time // total time spent queued for the bus

	nextAlloc int64
}

// New builds a UMA machine on engine e.
func New(e *sim.Engine, cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, engine: e, caches: make([]*cache, cfg.Procs)}
	for i := range m.caches {
		m.caches[i] = newCache(cfg)
	}
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

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
	m.BusBusy += occ
	m.BusWait += wait
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
	if proc < 0 || proc >= m.cfg.Procs {
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
	cfg := &t.m.cfg
	line := va / int64(cfg.LineWords)
	c := t.m.caches[t.proc]
	if c.lookup(line) {
		return cfg.HitTime, 0
	}
	wait = t.m.bus(cur, cfg.MissBusOcc)
	c.fill(line)
	return wait + cfg.MissLatency, wait
}

// writeCost accounts one word written through at va, returning the
// delay and its bus-queueing component.
func (t *Thread) writeCost(va int64, cur sim.Time) (delay, wait sim.Time) {
	cfg := &t.m.cfg
	line := va / int64(cfg.LineWords)
	wait = t.m.bus(cur, cfg.WriteBusOcc)
	// Snoop: invalidate every other cache's copy of the line.
	for p, c := range t.m.caches {
		if p != t.proc {
			c.invalidate(line)
		}
	}
	// Write-through no-allocate: update own copy only if resident.
	// (lookup() would skew stats; check the tag directly.)
	return wait + cfg.WriteLatency, wait
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
	cfg := &t.m.cfg
	wait := t.m.bus(t.st.Now(), cfg.AtomicBusOcc)
	line := va / int64(cfg.LineWords)
	for p, c := range t.m.caches {
		if p != t.proc {
			c.invalidate(line)
		}
	}
	t.m.memory[va] += delta
	v := t.m.memory[va]
	t.chargeAccess(wait+cfg.AtomicTime, wait)
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
