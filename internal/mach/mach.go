// Package mach models the hardware of a NUMA multiprocessor of the BBN
// Butterfly Plus class: a set of nodes, each pairing one processor with
// one local memory module, connected by a switch through which any
// processor can reference any remote module.
//
// The model is a timing model. Word accesses and page-sized block
// transfers charge virtual time to the issuing thread, and serialize at
// the target memory module: each module has a busy-until clock, so
// concurrent requests queue. Block transfers occupy both the source and
// the destination module for their whole duration — on the Butterfly
// Plus a block transfer consumes 75% of the local memory bandwidth of
// both nodes and the paper (§7) describes both processors as
// memory-starved, so full occupancy is the faithful simplification.
//
// Default cost parameters are the ones the PLATINUM paper reports for
// the Butterfly Plus (§4, §4.1).
package mach

import (
	"fmt"

	"platinum/internal/sim"
	"platinum/internal/span"
)

// MaxNodes bounds the node count of a simulated machine. Per-pair
// state (the distance matrix) grows as its square; 4096 nodes is four
// times the largest machine any experiment sweeps.
const MaxNodes = 4096

// Config holds the hardware cost parameters of the simulated machine.
type Config struct {
	// Nodes is the number of processor/memory-module pairs.
	Nodes int

	// PageWords is the page size in 32-bit words (4 KB => 1024).
	PageWords int

	// LocalRead/LocalWrite are the latencies of one 32-bit access to
	// the processor's own memory module. Paper: ~320 ns.
	LocalRead  sim.Time
	LocalWrite sim.Time

	// RemoteRead/RemoteWrite are the latencies of one 32-bit access
	// through the switch. Paper: ~5000 ns to read; writes are faster.
	RemoteRead  sim.Time
	RemoteWrite sim.Time

	// BlockCopyPerWord is the per-word cost of the hardware block
	// transfer engine. Paper: ~1100 ns/word => 1.11 ms per 4 KB page.
	BlockCopyPerWord sim.Time

	// LocalOccupancy/RemoteOccupancy are how long one access keeps the
	// target module busy (its serialization grain). A local access
	// occupies the module for its full latency; a remote access spends
	// most of its latency in the switch, so the module is busy for less.
	LocalOccupancy  sim.Time
	RemoteOccupancy sim.Time

	// InterruptDispatch is the incremental cost, charged to the
	// initiating processor, of interrupting one additional processor
	// during a shootdown. Paper: ~7 µs (§4).
	InterruptDispatch sim.Time

	// InterruptHandle is the cost charged to a target processor for
	// fielding an interprocessor interrupt and scanning its Cmap
	// message queue.
	InterruptHandle sim.Time

	// ATCReload is the cost of reloading an address-translation-cache
	// entry from the Pmap after an ATC miss (a few local references).
	ATCReload sim.Time

	// BlockXferOccupancy is the fraction (per mille, 0–1000) of a block
	// transfer's duration during which it monopolizes the two memory
	// modules. The Butterfly Plus consumes ~75% of both nodes' memory
	// bandwidth and the paper treats both processors as memory-starved,
	// so the default is 1000 (full starvation). §7 proposes redesigning
	// the memory system "to allow more concurrency between processing
	// and block transfers"; lowering this models that redesign. Zero
	// means the default (1000), keeping zero-value configs valid.
	BlockXferOccupancy int
}

// DefaultConfig returns the Butterfly Plus parameters from the paper:
// 16 nodes, 4 KB pages, T_l = 320 ns, T_r = 5000 ns, T_b = 1100 ns/word.
func DefaultConfig() Config {
	return Config{
		Nodes:             16,
		PageWords:         1024,
		LocalRead:         320 * sim.Nanosecond,
		LocalWrite:        320 * sim.Nanosecond,
		RemoteRead:        5000 * sim.Nanosecond,
		RemoteWrite:       4000 * sim.Nanosecond,
		BlockCopyPerWord:  1100 * sim.Nanosecond,
		LocalOccupancy:    320 * sim.Nanosecond,
		RemoteOccupancy:   800 * sim.Nanosecond,
		InterruptDispatch: 7 * sim.Microsecond,
		InterruptHandle:   10 * sim.Microsecond,
		ATCReload:         1 * sim.Microsecond,
	}
}

// Butterfly1Config returns estimated parameters for the first-generation
// BBN Butterfly (the machine LeBlanc's studies used, before the Plus).
// Its remote:local latency ratio was far smaller (~5:1 vs ~15:1) and its
// block transfer slower relative to word access, so the §4.1 ratio
// T_b/(T_r−T_l) — "the single most important characteristic of the
// architecture" — is ~0.63 instead of ~0.24: migration pays much more
// rarely, which is why PLATINUM targeted the Plus. Constants are
// estimates from Crowther et al. and LeBlanc's Butterfly reports.
func Butterfly1Config() Config {
	return Config{
		Nodes:             16,
		PageWords:         1024,
		LocalRead:         800 * sim.Nanosecond,
		LocalWrite:        800 * sim.Nanosecond,
		RemoteRead:        4000 * sim.Nanosecond,
		RemoteWrite:       3600 * sim.Nanosecond,
		BlockCopyPerWord:  2000 * sim.Nanosecond,
		LocalOccupancy:    800 * sim.Nanosecond,
		RemoteOccupancy:   1000 * sim.Nanosecond,
		InterruptDispatch: 12 * sim.Microsecond,
		InterruptHandle:   16 * sim.Microsecond,
		ATCReload:         2 * sim.Microsecond,
	}
}

// Validate reports an error if the configuration is unusable.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0 || c.Nodes > MaxNodes:
		return fmt.Errorf("mach: Nodes = %d, must be in 1..%d", c.Nodes, MaxNodes)
	case c.PageWords <= 0:
		return fmt.Errorf("mach: PageWords = %d, must be positive", c.PageWords)
	case c.LocalRead <= 0 || c.LocalWrite <= 0:
		return fmt.Errorf("mach: local access latencies must be positive")
	case c.RemoteRead < c.LocalRead || c.RemoteWrite < c.LocalWrite:
		return fmt.Errorf("mach: remote latencies must be >= local latencies")
	case c.BlockCopyPerWord <= 0:
		return fmt.Errorf("mach: BlockCopyPerWord must be positive")
	}
	return nil
}

// PageBytes returns the page size in bytes (4 bytes per word).
func (c Config) PageBytes() int { return c.PageWords * 4 }

// Machine is the simulated hardware: topology plus per-module (and
// per-switch-domain) serialization and statistics.
type Machine struct {
	cfg     Config
	topo    *Topology
	engine  *sim.Engine
	modules []Module

	// switchBusy[l][d] is the busy-until clock of domain d's switch at
	// level l; empty when the topology has no contended switch levels.
	switchBusy [][]sim.Time

	// placeOrder caches PlaceOrder's per-node module orderings.
	placeOrder [][]int32

	// replicaHomes/replicaOf cache ReplicaHomes/ReplicaHomeOf: one
	// page-table replica home per level-0 switch domain (or per node on
	// machines without contended switch levels).
	replicaHomes []int32
	replicaOf    []int32

	// accessFault, when set, injects a transient busy/retry delay into
	// word accesses (see SetAccessFault). nil in normal operation.
	accessFault func(proc, mod int) sim.Time

	// rec, when set, records causal spans for the hardware costs mach
	// charges directly: injected access retries and the block transfer
	// of a migrating thread's kernel stack. The kernel wires it to the
	// coherent memory system's recorder at boot.
	rec *span.Recorder
}

// Module is one memory module. Requests serialize at the module: any
// access starting before busyUntil queues behind the in-progress one.
type Module struct {
	busyUntil sim.Time

	// Statistics.
	Accesses  int64    // word-access requests served
	Words     int64    // words transferred (incl. block transfers)
	QueueWait sim.Time // total time requesters spent queued
	BusyTime  sim.Time // total occupancy
}

// New constructs a machine on the given simulation engine from bare
// cost constants: the uniform topology those constants have always
// described. Machines with distance matrices, switch levels or memory
// tiers are built with FromTopology.
func New(e *sim.Engine, cfg Config) (*Machine, error) {
	return FromTopology(e, UniformTopology(cfg))
}

// FromTopology constructs a machine from a declarative topology (see
// Topology and TOPOLOGY.md). The topology is validated and captured by
// reference; it must not be mutated afterwards.
func FromTopology(e *sim.Engine, t *Topology) (*Machine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     t.Base,
		topo:    t,
		engine:  e,
		modules: make([]Module, t.Base.Nodes),
	}
	for _, l := range t.Levels {
		if l.PerWord > 0 {
			m.switchBusy = append(m.switchBusy, make([]sim.Time, l.domains()))
		} else {
			m.switchBusy = append(m.switchBusy, nil) // uncontended level
		}
	}
	return m, nil
}

// Config returns the machine's base cost configuration.
func (m *Machine) Config() Config { return m.cfg }

// Topology returns the machine's declarative topology (a uniform
// wrapper around Config for machines built with New). Do not modify.
func (m *Machine) Topology() *Topology { return m.topo }

// Engine returns the simulation engine the machine runs on.
func (m *Machine) Engine() *sim.Engine { return m.engine }

// Nodes returns the number of nodes.
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// Module returns the stats record for module mod.
func (m *Machine) Module(mod int) *Module { return &m.modules[mod] }

// Reset returns the machine to its freshly-constructed state: every
// module idle with zeroed statistics, and the access-fault hook and
// span recorder cleared (the kernel re-wires the recorder on reuse,
// exactly as it does at boot). The configuration is kept.
func (m *Machine) Reset() {
	for i := range m.modules {
		m.modules[i] = Module{}
	}
	for _, level := range m.switchBusy {
		for d := range level {
			level[d] = 0
		}
	}
	m.accessFault = nil
	m.rec = nil
}

// BusyUntil reports when module mod's current request queue drains.
func (m *Machine) BusyUntil(mod int) sim.Time { return m.modules[mod].busyUntil }

// wordCost returns the latency and module occupancy of n word accesses
// from processor proc to module mod: the base local/remote constant,
// with the latency scaled by the pair's distance multiplier and the
// target module's tier, and the occupancy by the tier alone (a slow
// module is busy longer, but switch distance does not hold the module).
// On a uniform topology every multiplier is DistScale, which scaleMul
// applies as exact identity.
func (m *Machine) wordCost(proc, mod, n int, write bool) (lat, occ sim.Time) {
	c := &m.cfg
	if proc == mod {
		if write {
			lat = c.LocalWrite
		} else {
			lat = c.LocalRead
		}
		occ = c.LocalOccupancy
	} else {
		if write {
			lat = c.RemoteWrite
		} else {
			lat = c.RemoteRead
		}
		occ = c.RemoteOccupancy
	}
	lat = scaleMul(lat, m.topo.DistanceMul(proc, mod))
	tier := m.topo.TierOf(mod)
	var tm int
	if write {
		tm = tier.writeMul()
	} else {
		tm = tier.readMul()
	}
	lat = scaleMul(lat, tm)
	occ = scaleMul(occ, tm)
	return lat * sim.Time(n), occ * sim.Time(n)
}

// switchStart folds into start the busy-until clocks of every domain
// switch a transfer between proc and mod crosses: at each contended
// level where the endpoints are in different domains, the transfer
// passes through both endpoint domains' switches.
func (m *Machine) switchStart(proc, mod int, start sim.Time) sim.Time {
	for li, busy := range m.switchBusy {
		if busy == nil {
			continue
		}
		dom := m.topo.Levels[li].Domain
		dp, dm := dom[proc], dom[mod]
		if dp == dm {
			continue
		}
		if busy[dp] > start {
			start = busy[dp]
		}
		if busy[dm] > start {
			start = busy[dm]
		}
	}
	return start
}

// switchOccupy marks every crossed domain switch busy for words words
// starting at start. Switch levels model contention only; the latency
// of the longer path is the distance matrix's concern.
func (m *Machine) switchOccupy(proc, mod, words int, start sim.Time) {
	for li, busy := range m.switchBusy {
		if busy == nil {
			continue
		}
		l := &m.topo.Levels[li]
		dp, dm := l.Domain[proc], l.Domain[mod]
		if dp == dm {
			continue
		}
		until := start + l.PerWord*sim.Time(words)
		if busy[dp] < until {
			busy[dp] = until
		}
		if busy[dm] < until {
			busy[dm] = until
		}
	}
}

// SetAccessFault installs a fault-injection hook consulted on every
// word access charged through Access: the returned extra delay models a
// transient busy/retry at the target module (the access is retried
// until the module answers). The delay is attributed to CauseRetry and
// extends the module's occupancy, so conservation and module statistics
// stay exact. Pass nil to disable. The hook must be deterministic for a
// given call sequence or simulation runs stop being reproducible.
func (m *Machine) SetAccessFault(f func(proc, mod int) sim.Time) { m.accessFault = f }

// SetSpanRecorder directs the machine's causal spans (injected access
// retries, thread-migration block transfers) to r. Recording is pure
// bookkeeping and cannot affect timing or dispatch order.
func (m *Machine) SetSpanRecorder(r *span.Recorder) { m.rec = r }

// Access charges thread t for n word accesses from processor proc to
// memory module mod, queueing at the module if it is busy. It returns
// the total delay experienced (queueing + latency). The latency is
// attributed to CauseLocalAccess or CauseRemoteAccess and the queueing
// delay to CauseQueue, so the cost breakdown separates reference cost
// from module contention.
func (m *Machine) Access(t *sim.Thread, proc, mod, n int, write bool) sim.Time {
	if n <= 0 {
		return 0
	}
	lat, occ := m.wordCost(proc, mod, n, write)
	var retry sim.Time
	if m.accessFault != nil {
		retry = m.accessFault(proc, mod)
	}
	mm := &m.modules[mod]
	start := t.Now()
	if mm.busyUntil > start {
		start = mm.busyUntil
	}
	if m.switchBusy != nil && proc != mod {
		start = m.switchStart(proc, mod, start)
		m.switchOccupy(proc, mod, n, start)
	}
	queue := start - t.Now()
	mm.busyUntil = start + occ + retry
	mm.Accesses++
	mm.Words += int64(n)
	mm.QueueWait += queue
	mm.BusyTime += occ + retry
	cause := sim.CauseRemoteAccess
	if proc == mod {
		cause = sim.CauseLocalAccess
	}
	t.Attribute(sim.CauseQueue, queue)
	t.Attribute(cause, lat)
	t.Attribute(sim.CauseRetry, retry)
	if retry > 0 && m.rec != nil {
		// Injected transient-busy retry: span it so CauseRetry
		// reconciles between spans and accounting.
		at := t.Now() + queue + lat
		o := m.rec.Begin(span.KindRetry, at).Proc(proc).Track(t.ID()).
			Attribute(sim.CauseRetry, retry).Notef("module %d busy", mod)
		o.End(at + retry)
	}
	total := queue + lat + retry
	t.Advance(total)
	return total
}

// AccessFree records the timing of n word accesses without advancing the
// thread, for costs that are accounted as part of a larger composite
// operation. It still occupies the module and returns the delay the
// caller should fold into its own accounting.
func (m *Machine) AccessFree(now sim.Time, proc, mod, n int, write bool) sim.Time {
	if n <= 0 {
		return 0
	}
	lat, occ := m.wordCost(proc, mod, n, write)
	mm := &m.modules[mod]
	start := now
	if mm.busyUntil > start {
		start = mm.busyUntil
	}
	if m.switchBusy != nil && proc != mod {
		start = m.switchStart(proc, mod, start)
		m.switchOccupy(proc, mod, n, start)
	}
	queue := start - now
	mm.busyUntil = start + occ
	mm.Accesses++
	mm.Words += int64(n)
	mm.QueueWait += queue
	mm.BusyTime += occ
	return queue + lat
}

// BlockTransfer charges thread t for a hardware block transfer of words
// 32-bit words from module src to module dst. Both modules are occupied
// for the full duration; the transfer cannot start until both are free.
// It returns the total delay (queueing + transfer).
func (m *Machine) BlockTransfer(t *sim.Thread, src, dst, words int) sim.Time {
	return m.blockTransferAt(t, t.Now(), src, dst, words, true)
}

// BlockTransferAt is BlockTransfer with an explicit earliest start time,
// without advancing the thread; used inside composite kernel operations.
func (m *Machine) BlockTransferAt(now sim.Time, src, dst, words int) sim.Time {
	return m.blockTransferAt(nil, now, src, dst, words, false)
}

func (m *Machine) blockTransferAt(t *sim.Thread, now sim.Time, src, dst, words int, advance bool) sim.Time {
	if words <= 0 {
		return 0
	}
	ms, md := &m.modules[src], &m.modules[dst]
	start := now
	if ms.busyUntil > start {
		start = ms.busyUntil
	}
	if src != dst && md.busyUntil > start {
		start = md.busyUntil
	}
	if m.switchBusy != nil && src != dst {
		start = m.switchStart(src, dst, start)
		m.switchOccupy(src, dst, words, start)
	}
	queue := start - now
	// The transfer engine streams through the switch at the pair's
	// distance and is rate-limited by the slower memory side: the
	// source tier reading the page out (a dirty page's writeback is
	// read at its owning tier's rate) and the destination tier
	// absorbing the writes.
	perWord := m.cfg.BlockCopyPerWord
	if src != dst {
		perWord = scaleMul(perWord, m.topo.DistanceMul(src, dst))
	}
	mul := m.topo.TierOf(src).readMul()
	if wm := m.topo.TierOf(dst).writeMul(); wm > mul {
		mul = wm
	}
	perWord = scaleMul(perWord, mul)
	dur := perWord * sim.Time(words)
	occ := dur
	if f := m.cfg.BlockXferOccupancy; f > 0 && f < 1000 {
		occ = dur * sim.Time(f) / 1000
	}
	ms.busyUntil = start + occ
	ms.Words += int64(words)
	ms.QueueWait += queue
	ms.BusyTime += occ
	if src != dst {
		md.busyUntil = start + occ
		md.Words += int64(words)
		md.BusyTime += occ
	}
	total := queue + dur
	if advance {
		// Charged directly to a thread (thread migration): the queueing
		// for busy modules is contention, the transfer itself T_b cost.
		t.Attribute(sim.CauseQueue, queue)
		t.Attribute(sim.CauseBlockTransfer, dur)
		if m.rec != nil {
			o := m.rec.Begin(span.KindBlockTransfer, now+queue).
				Proc(dst).Track(t.ID()).
				Attribute(sim.CauseBlockTransfer, dur).
				Notef("stack %d->%d", src, dst)
			o.End(now + queue + dur)
		}
		t.Advance(total)
	}
	return total
}

// ModuleStats is a snapshot of one module's counters.
type ModuleStats struct {
	Module    int
	Accesses  int64
	Words     int64
	QueueWait sim.Time
	BusyTime  sim.Time
}

// Stats returns a snapshot of all module counters.
func (m *Machine) Stats() []ModuleStats {
	out := make([]ModuleStats, len(m.modules))
	for i := range m.modules {
		mm := &m.modules[i]
		out[i] = ModuleStats{
			Module:    i,
			Accesses:  mm.Accesses,
			Words:     mm.Words,
			QueueWait: mm.QueueWait,
			BusyTime:  mm.BusyTime,
		}
	}
	return out
}
