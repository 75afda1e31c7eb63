// Package kernel implements the PLATINUM programming model (§1.1) on top
// of the coherent memory system: kernel-scheduled threads bound to
// processors (with explicit migration), address spaces, page-aligned
// allocation zones, ports (globally named message queues), and the
// memory access operations simulated programs use.
//
// All abstractions live in one flat global name space, and all primary
// memory appears as a single fast shared memory: programs address it
// with word-granular virtual addresses and never see where pages
// physically live. The kernel charges every operation's virtual-time
// cost to the calling thread, so application-level timing (speedups,
// contention) emerges from the memory system's behaviour.
package kernel

import (
	"fmt"

	"platinum/internal/core"
	"platinum/internal/mach"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
	"platinum/internal/vm"
)

// Config configures a simulated machine and kernel.
type Config struct {
	Machine mach.Config
	Core    core.Config

	// Topology, when non-nil, overrides Machine with a declarative
	// machine description (distance matrix, switch contention domains,
	// memory tiers — see mach.Topology and TOPOLOGY.md). Machine is
	// ignored in that case; the topology's Base supplies the cost
	// constants. The topology is captured by reference and must not be
	// mutated after Boot.
	Topology *mach.Topology
}

// Kernel costs, in Butterfly-era proportions.
const (
	// spinPoll is SpinWait's first interval between polls; unsuccessful
	// polls back off exponentially up to spinPollMax.
	spinPoll    = 5 * sim.Microsecond
	spinPollMax = 160 * sim.Microsecond

	// portOverhead is the fixed kernel cost of one send or receive;
	// portPerWord is the per-word message copy cost. Together they model
	// the Butterfly's structured-message-passing cost.
	portOverhead = 150 * sim.Microsecond
	portPerWord  = 550 * sim.Nanosecond

	// migrateOverhead is the fixed cost of moving a thread between
	// processors, on top of the block transfer of its kernel stack
	// (§2.2: the kernel stack is explicitly moved with the thread).
	migrateOverhead = 200 * sim.Microsecond
)

// defrostProc is the processor the defrost daemon runs on.
const defrostProc = 0

// DefaultConfig returns the paper's machine.
func DefaultConfig() Config {
	return Config{Machine: mach.DefaultConfig(), Core: core.DefaultConfig()}
}

// Kernel is one booted simulated machine.
type Kernel struct {
	pw      int   // cached Machine.PageWords, on every access path
	pwShift uint  // log2(pw) when pw is a power of two
	pwMask  int64 // pw-1 when pw is a power of two
	pwPow2  bool  // page addresses split with shift/mask, not div/mod
	engine  *sim.Engine
	machine *mach.Machine
	sys     *core.System
	mgr     *vm.Manager
	ports   map[string]*Port
}

// Boot builds the machine, the coherent memory system, the virtual
// memory manager, and starts the defrost daemon.
func Boot(cfg Config) (*Kernel, error) {
	e := sim.NewEngine()
	var m *mach.Machine
	var err error
	if cfg.Topology != nil {
		m, err = mach.FromTopology(e, cfg.Topology)
	} else {
		m, err = mach.New(e, cfg.Machine)
	}
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(m, cfg.Core)
	if err != nil {
		return nil, err
	}
	pw := m.Config().PageWords
	k := &Kernel{
		pw:      pw,
		engine:  e,
		machine: m,
		sys:     sys,
		mgr:     vm.NewManager(sys),
		ports:   make(map[string]*Port),
	}
	if pw&(pw-1) == 0 {
		// The usual case (pages are 2^k words): split virtual addresses
		// into (vpn, offset) with shift/mask instead of div/mod, which
		// sits on every simulated memory reference.
		k.pwPow2 = true
		k.pwMask = int64(pw - 1)
		for 1<<k.pwShift < pw {
			k.pwShift++
		}
	}
	// One recorder per machine: the hardware layer's spans (migration
	// transfers, injected retries) land in the same flight ring and
	// export stream as the protocol's.
	m.SetSpanRecorder(sys.Spans())
	sys.StartDefrostDaemon(defrostProc)
	return k, nil
}

// Run executes the simulation until every thread finishes.
func (k *Kernel) Run() error { return k.engine.Run() }

// Reset returns the kernel to its just-booted state without rebuilding
// anything: the engine, machine, coherent memory system and VM manager
// all reset in place (retaining the buffers, maps and free lists they
// have grown), the span recorder is re-wired, and the defrost daemon is
// respawned first — so it gets thread id 0, exactly as after Boot. A
// reset kernel runs any workload bit-for-bit identically to a freshly
// booted one; only the allocations are elided.
//
// Reset may only be called after Run has returned (the engine panics
// otherwise). Spaces, zones and ports from the previous run are
// forgotten; their names may be reused.
func (k *Kernel) Reset() {
	k.engine.Reset()
	k.machine.Reset()
	k.sys.Reset()
	k.mgr.Reset()
	clear(k.ports)
	k.machine.SetSpanRecorder(k.sys.Spans())
	k.sys.StartDefrostDaemon(defrostProc)
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.engine }

// Machine returns the simulated hardware.
func (k *Kernel) Machine() *mach.Machine { return k.machine }

// System returns the coherent memory system.
func (k *Kernel) System() *core.System { return k.sys }

// Manager returns the virtual memory manager.
func (k *Kernel) Manager() *vm.Manager { return k.mgr }

// Nodes returns the machine's processor count.
func (k *Kernel) Nodes() int { return k.machine.Nodes() }

// PageWords returns the page size in 32-bit words.
func (k *Kernel) PageWords() int { return k.pw }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.engine.Now() }

// Report returns the coherent memory system's post-mortem report.
func (k *Kernel) Report() core.Report { return k.sys.Report() }

// NodeAccounts returns the per-processor cost breakdown: virtual time
// by cause, accumulated for every thread while bound to each node.
// Every kernel thread is bound to its processor, so this is the exact
// per-processor decomposition of where simulated time went.
func (k *Kernel) NodeAccounts() []sim.Account { return k.engine.NodeAccounts() }

// TotalAccount returns the machine-wide cost breakdown (the sum of
// NodeAccounts).
func (k *Kernel) TotalAccount() sim.Account { return k.engine.TotalAccount() }

// Space is an address space handle with allocation helpers.
type Space struct {
	k  *Kernel
	vs *vm.Space
}

// NewSpace creates an empty address space.
func (k *Kernel) NewSpace() *Space {
	return &Space{k: k, vs: k.mgr.NewSpace()}
}

// AllocPages creates a fresh memory object of npages pages, maps it into
// the space with the given rights, and returns the word-granular virtual
// address of its first word. This is the paper's page-aligned allocation
// zone library (§6): data with different access patterns goes in
// different zones, hence different pages.
func (sp *Space) AllocPages(label string, npages int, rights core.Rights) (int64, error) {
	obj, err := sp.k.mgr.NewObject(label, npages)
	if err != nil {
		return 0, err
	}
	vpn, err := sp.vs.MapAnywhere(obj, rights)
	if err != nil {
		return 0, err
	}
	return vpn * int64(sp.k.PageWords()), nil
}

// AllocWords allocates at least nwords words in a fresh zone and returns
// its base virtual address. The zone is page-aligned and padded to whole
// pages.
func (sp *Space) AllocWords(label string, nwords int, rights core.Rights) (int64, error) {
	pw := sp.k.PageWords()
	npages := (nwords + pw - 1) / pw
	if npages == 0 {
		npages = 1
	}
	return sp.AllocPages(label, npages, rights)
}

// PlaceAt statically places the page containing virtual address va on
// the given memory module. Setup-time only (costs nothing); the page
// must not have been touched yet. This models deliberate data placement
// such as the Uniform System's scatter allocation.
func (sp *Space) PlaceAt(va int64, module int) error {
	vpn := va / int64(sp.k.PageWords())
	e := sp.vs.Cmap().Lookup(vpn)
	if e == nil {
		return fmt.Errorf("kernel: PlaceAt on unmapped va %d", va)
	}
	return sp.k.sys.MaterializeAt(e.Cpage(), module)
}

// Unmap removes the zone whose base virtual address is va, invalidating
// all translations (costs charged to t). The zone must have been mapped
// starting exactly at va.
func (sp *Space) Unmap(t *Thread, va int64) error {
	return sp.vs.Unmap(t.st, t.proc, va/int64(sp.k.PageWords()))
}

// EnableTrace starts recording coherent memory protocol events (§9's
// instrumentation interface); see core.Event.
func (k *Kernel) EnableTrace(capacity int) { k.sys.EnableTrace(capacity) }

// Trace returns recorded protocol events and the overflow count.
func (k *Kernel) Trace() ([]core.Event, int64) { return k.sys.Trace() }

// EnableSpans starts retaining every causal span for export (the
// bounded flight-recorder ring is always on regardless); capacity <= 0
// selects a generous default bound. Call before Run so the recording
// is complete and reconciles with the Account totals.
func (k *Kernel) EnableSpans(capacity int) { k.sys.Spans().EnableRetain(capacity) }

// Spans returns the machine's causal span recorder.
func (k *Kernel) Spans() *span.Recorder { return k.sys.Spans() }

// EnableHistograms starts distributional latency telemetry: per-node
// per-cause charge histograms in the engine, and span retention, from
// which the report derives whole-operation histograms (full fault,
// shootdown round, block transfer; span.Recorder.OpHist). Retention
// already on, from EnableSpans, keeps its capacity. Pure bookkeeping —
// results are unchanged. Call before Run so the recording is complete
// and the histogram conservation check (metrics.CheckHistConservation)
// is exact; Reset turns it off again.
func (k *Kernel) EnableHistograms() {
	k.engine.EnableChargeHistograms(k.Nodes())
	if rec := k.sys.Spans(); !rec.Retaining() {
		rec.EnableRetain(0)
	}
}

// EnableSeries starts windowed time-series telemetry over simulated
// time: per-cause charged time in the engine and operation counts
// (faults, shootdowns, block transfers, freezes, thaws) in the span
// recorder, in windows of the given width. capWindows bounds the
// retained ring (<= 0 selects the timeseries default); older windows
// spill into exact per-column accumulators rather than being lost.
// Call before Run; Reset turns it off again.
func (k *Kernel) EnableSeries(window sim.Time, capWindows int) {
	k.engine.EnableCauseSeries(window, capWindows)
	k.sys.Spans().EnableCountSeries(window, capWindows)
}

// CauseSeries returns the engine's per-cause charged-time series, or
// nil when EnableSeries was not called.
func (k *Kernel) CauseSeries() *timeseries.Series { return k.engine.CauseSeries() }
