// Package core implements PLATINUM's coherent memory system — the
// paper's primary contribution (Cox & Fowler, SOSP 1989).
//
// Coherent memory presents every page as uniformly accessible from all
// processors while transparently replicating and migrating the physical
// pages that back it. The protocol is a directory-based selective-
// invalidation cache coherency protocol (after Censier & Feautrier)
// extended with the NUMA-specific option of mapping a remote physical
// copy instead of caching: when fine-grain write sharing makes coherency
// traffic more expensive than remote access, the page is "frozen" and
// all processors use remote references until the defrost daemon thaws it.
//
// The package implements, faithfully to the paper's structure:
//
//   - the Cpage system: coherent page table, per-page directory of
//     physical copies, the four-state protocol (empty, present1,
//     present+, modified; Fig. 4), the page fault handler (§3.3), the
//     replication policy (§4.2) and the defrost daemon;
//   - the Cmap system: per-address-space virtual-to-coherent mappings,
//     a private Pmap per processor per address space, Cmap message
//     queues, and the NUMA shootdown mechanism (§3.1);
//   - per-processor address translation caches (ATCs) modeled on the
//     MC68851, kept coherent by the same shootdown mechanism;
//   - the paper's kernel instrumentation: per-Cpage fault counts,
//     fault-handler contention, and freeze state (§4.2).
package core

import (
	"fmt"

	"platinum/internal/mach"
	"platinum/internal/phys"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// Rights are access rights to a page.
type Rights uint8

// Access rights bits.
const (
	Read  Rights = 1 << iota // page may be read
	Write                    // page may be written
)

// Allows reports whether r grants everything in want.
func (r Rights) Allows(want Rights) bool { return r&want == want }

// String renders the rights as a compact r/w/rw tag for reports.
func (r Rights) String() string {
	switch r {
	case 0:
		return "none"
	case Read:
		return "r"
	case Write:
		return "w"
	case Read | Write:
		return "rw"
	}
	return fmt.Sprintf("Rights(%d)", uint8(r))
}

// ErrProtection is returned when an access exceeds the rights granted by
// the virtual memory system (a true access violation, not a coherency
// fault).
type ErrProtection struct {
	Proc  int
	VPN   int64
	Want  Rights
	Grant Rights
}

// Error describes the violated access in terms of the Cmap grant.
func (e *ErrProtection) Error() string {
	return fmt.Sprintf("core: protection violation: proc %d vpn %d wants %v, granted %v",
		e.Proc, e.VPN, e.Want, e.Grant)
}

// ErrNoMemory is returned when a page must be materialized but no module
// has a free frame.
type ErrNoMemory struct{ VPN int64 }

// Error names the virtual page that could not be materialized.
func (e *ErrNoMemory) Error() string {
	return fmt.Sprintf("core: out of physical memory materializing vpn %d", e.VPN)
}

// ErrUnmapped is returned when an access hits a virtual page with no
// Cmap entry (the virtual memory layer did not bind it).
type ErrUnmapped struct {
	Proc int
	VPN  int64
}

// Error names the processor and unbound virtual page.
func (e *ErrUnmapped) Error() string {
	return fmt.Sprintf("core: proc %d touched unmapped vpn %d", e.Proc, e.VPN)
}

// ErrInvariant reports a violated protocol invariant: the directory,
// the inverted page table, or the protocol state of a coherent page
// disagree with each other. It is returned both by Validate and by the
// fault path when an operation trips an internal consistency check, so
// a stress harness can report the violation (with the page's identity
// and directory state) instead of the process dying on a panic.
type ErrInvariant struct {
	Page  int64 // coherent page id
	State State // protocol state at detection time
	// DirMask is the directory at detection time as a module bitmask,
	// built from the copy list and restricted to modules 0..63 (copies
	// on higher modules have no bit).
	DirMask uint64
	Detail  string // which invariant broke, and how
}

// Error describes the violated invariant with the page's protocol state
// and directory mask.
func (e *ErrInvariant) Error() string {
	return fmt.Sprintf("core: invariant violated on cpage %d (state %v, dirMask %b): %s",
		e.Page, e.State, e.DirMask, e.Detail)
}

// invariantErr builds an ErrInvariant snapshotting cp's identity.
func invariantErr(cp *Cpage, format string, args ...any) error {
	return &ErrInvariant{
		Page:    cp.id,
		State:   cp.State(),
		DirMask: cp.dirMask(),
		Detail:  fmt.Sprintf(format, args...),
	}
}

// FaultInjector injects degraded-hardware behaviour into the coherent
// memory system, driving the protocol through the retry and fallback
// paths a healthy machine never exercises. All injected delays are
// attributed to the dedicated causes sim.CauseSlowAck and
// sim.CauseRetry, so fault-injection runs still satisfy the
// conservation invariant. Implementations must be deterministic for a
// given call sequence (e.g. a seeded PRNG) or simulation runs stop
// being reproducible.
type FaultInjector interface {
	// AckDelay returns extra time the shootdown initiator spends
	// synchronizing with interrupted target proc — a slow
	// interprocessor-interrupt acknowledgement. Charged to CauseSlowAck.
	AckDelay(initiator, target int) sim.Time

	// TransferStall returns extra stall time for the hardware block
	// transfer backing a replication or migration (a transiently busy
	// memory module forcing the engine to retry). Charged to CauseRetry.
	TransferStall(src, dst int) sim.Time

	// FailAlloc reports whether the next frame allocation on module mod
	// should fail, as if the pool were exhausted — driving the fault
	// handler's remote-reference fallback paths.
	FailAlloc(mod int) bool
}

// SourceSelection chooses which existing physical copy a replication
// reads from.
type SourceSelection uint8

const (
	// SourceFirstCopy always copies from the directory's first copy
	// (the behaviour that serializes pivot-row replication in §5.1).
	SourceFirstCopy SourceSelection = iota
	// SourceLeastLoaded copies from the copy whose module is free
	// soonest, letting replication fan out (§7's "more concurrency").
	SourceLeastLoaded
)

// Config holds the coherent memory system's parameters. All fixed
// overheads default to values that reproduce the paper's §4 composite
// measurements (see DefaultConfig).
type Config struct {
	// FramesPerModule sizes each node's frame pool (4 MB / 4 KB = 1024
	// on the Butterfly Plus).
	FramesPerModule int

	// Policy decides replicate/migrate vs. freeze on each fault.
	// Defaults to the paper's timestamp policy with T1 = 10 ms.
	Policy Policy

	// DefrostPeriod (t2) is how often the defrost daemon thaws frozen
	// pages. Paper: 1 s. Zero disables the daemon.
	DefrostPeriod sim.Time

	// SourceSelection picks the block-transfer source for replication.
	SourceSelection SourceSelection

	// ATCEntries is the per-processor address translation cache size
	// (the MC68851 held 64 entries).
	ATCEntries int

	// Fixed overheads of the fault handler (see §4 for the composite
	// timings these reproduce).
	FaultBase     sim.Time // enter handler, Cmap lookup, lock Cpage
	MapInstall    sim.Time // install the Pmap/ATC mapping at the end
	FrameAlloc    sim.Time // IPT search + allocate + directory update
	FrameFree     sim.Time // one remote read + one write (~10 µs, §4)
	ShootdownPost sim.Time // post a Cmap message
	ShootdownSync sim.Time // synchronize with the first interrupted target
	// Incremental per-extra-target cost is mach.Config.InterruptDispatch.

	// KernelRemotePenalty is added when the handling processor's node
	// does not hold the Cpage's kernel metadata (the paper's 1.34 ms vs
	// 1.38 ms spread between local and remote kernel data structures).
	KernelRemotePenalty sim.Time

	// PageTables selects the page-table placement and invalidation
	// variants (see PTConfig). The zero value is the paper's model:
	// free walks, eager shootdown.
	PageTables PTConfig
}

// DefaultConfig returns parameters that reproduce the paper's §4
// measurements on the default machine:
//
//	read miss replicating a non-modified page: 0.23–0.27 ms + 1.13 ms copy
//	read miss replicating a modified page (1 target): + shootdown
//	write miss on a present+ page (1 target, 1 free): 0.25–0.45 ms
//	incremental cost per extra shootdown target: 17 µs (7 µs interrupt
//	  dispatch + 10 µs frame free)
func DefaultConfig() Config {
	return Config{
		FramesPerModule:     1024,
		Policy:              nil, // filled by NewSystem: NewPlatinumPolicy(DefaultT1, false)
		DefrostPeriod:       1 * sim.Second,
		SourceSelection:     SourceFirstCopy,
		ATCEntries:          64,
		FaultBase:           80 * sim.Microsecond,
		MapInstall:          60 * sim.Microsecond,
		FrameAlloc:          90 * sim.Microsecond,
		FrameFree:           10 * sim.Microsecond,
		ShootdownPost:       50 * sim.Microsecond,
		ShootdownSync:       100 * sim.Microsecond,
		KernelRemotePenalty: 40 * sim.Microsecond,
	}
}

// System is the coherent memory system of one simulated machine.
type System struct {
	machine *mach.Machine
	mem     *phys.Memory
	cfg     Config
	mcfg    mach.Config // cached copy of machine.Config(), for hot paths

	cpages    []*Cpage
	cmaps     []*Cmap
	frozen    []*Cpage // frozen list scanned by the defrost daemon
	tr        *tracer  // optional event trace (EnableTrace)
	atcs      []*atc
	penalty   []sim.Time // deferred interrupt-handling cost per processor
	homeNext  int        // round-robin default home module for new cpages
	shootSeqs int64      // shootdowns issued (stats)

	// inj, when set, injects degraded-hardware behaviour (see
	// FaultInjector).
	inj FaultInjector

	// Page-table variant state (see pagetable.go): per-proc cached
	// replica write-through cost and the pending balance the fault
	// handler drains; per-target deferred-invalidation counts for the
	// batched variant; and the activity counters.
	ptRepCost []sim.Time
	ptRepPend sim.Time
	batchPend []int
	ptStats   PTStats

	// Causal span recording scratch (see span.go): the recorder, the
	// current operation's root span and track, the buffered child
	// spans, their Self summed by cause (the operation's charge), and
	// the per-round shootdown target records.
	rec        *span.Recorder
	spanParent span.ID
	spanTrack  int
	pending    []span.Span
	acct       sim.Account
	sdTargets  []sdTarget

	// Free lists fed by Reset: finished runs return their Cpages, Cmaps
	// (with maps built and cleared) and CmapEntries here, and NewCpage /
	// NewCmap / Cmap.Enter draw from them, so a reused system rebuilds
	// its page and mapping state without allocating.
	cpagePool []*Cpage
	cmapPool  []*Cmap
	entryPool []*CmapEntry
}

// NewSystem builds a coherent memory system on machine m.
func NewSystem(m *mach.Machine, cfg Config) (*System, error) {
	if cfg.FramesPerModule <= 0 {
		return nil, fmt.Errorf("core: FramesPerModule = %d, must be positive", cfg.FramesPerModule)
	}
	if cfg.ATCEntries <= 0 {
		return nil, fmt.Errorf("core: ATCEntries = %d, must be positive", cfg.ATCEntries)
	}
	if cfg.Policy == nil {
		cfg.Policy = NewPlatinumPolicy(DefaultT1, false)
	}
	mem, err := phys.NewMemory(m.Nodes(), cfg.FramesPerModule, m.Config().PageWords)
	if err != nil {
		return nil, err
	}
	s := &System{
		machine: m,
		mem:     mem,
		mcfg:    m.Config(),
		cfg:     cfg,
		atcs:    make([]*atc, m.Nodes()),
		penalty: make([]sim.Time, m.Nodes()),
		rec:     span.NewRecorder(0),
	}
	for i := range s.atcs {
		s.atcs[i] = newATC(cfg.ATCEntries)
	}
	if cfg.PageTables.BatchShootdown {
		s.batchPend = make([]int, m.Nodes())
	}
	return s, nil
}

// Reset returns the system to its freshly-constructed state — no
// pages, no address spaces, empty physical memory, cold ATCs, span and
// trace recording back to boot defaults — while retaining every
// structure it has grown. Finished Cpages, Cmaps and CmapEntries move
// to free lists that the corresponding constructors draw from, so the
// next run rebuilds its state without allocating. A reset system
// behaves bit-for-bit identically to one from NewSystem: ids restart
// at zero, homes round-robin from module 0, and no tombstones or stale
// cache entries survive to perturb simulated costs.
func (s *System) Reset() {
	s.mem.Reset()
	for i, cp := range s.cpages {
		s.cpagePool = append(s.cpagePool, cp)
		s.cpages[i] = nil
	}
	s.cpages = s.cpages[:0]
	for i, cm := range s.cmaps {
		cm.recycle(s)
		s.cmapPool = append(s.cmapPool, cm)
		s.cmaps[i] = nil
	}
	s.cmaps = s.cmaps[:0]
	for i := range s.frozen {
		s.frozen[i] = nil
	}
	s.frozen = s.frozen[:0]
	s.tr = nil // tracing is re-enabled per run, as at boot
	for _, a := range s.atcs {
		a.reset()
	}
	for i := range s.penalty {
		s.penalty[i] = 0
	}
	s.homeNext = 0
	s.shootSeqs = 0
	s.inj = nil
	s.ptRepPend = 0 // ptRepCost is topology-derived and survives, like placeOrder
	for i := range s.batchPend {
		s.batchPend[i] = 0
	}
	s.ptStats = PTStats{}
	s.rec.Reset()
	s.spanParent = span.None
	s.spanTrack = 0
	s.pending = s.pending[:0]
	s.acct = sim.Account{}
	s.sdTargets = s.sdTargets[:0]
}

// Memory returns the physical memory substrate.
func (s *System) Memory() *phys.Memory { return s.mem }

// SetFaultInjector installs (or, with nil, removes) a fault injector.
// Injection only adds delay and allocation failures; it cannot corrupt
// protocol state, so a run with injection enabled must still pass
// Validate at every quiescent point.
func (s *System) SetFaultInjector(fi FaultInjector) { s.inj = fi }

// chargePenalty folds any deferred interrupt-handling cost for proc into
// the current operation, returning the extra delay.
func (s *System) chargePenalty(proc int) sim.Time {
	d := s.penalty[proc]
	s.penalty[proc] = 0
	return d
}

// Shootdowns reports the number of shootdown operations issued.
func (s *System) Shootdowns() int64 { return s.shootSeqs }
