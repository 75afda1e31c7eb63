// Package platinum is a library reproduction of PLATINUM, the operating
// system kernel with a coherent memory abstraction for NUMA
// multiprocessors described in:
//
//	Alan L. Cox and Robert J. Fowler, "The Implementation of a Coherent
//	Memory Abstraction on a NUMA Multiprocessor: Experiences with
//	PLATINUM", SOSP 1989.
//
// The package boots a simulated BBN Butterfly Plus-class machine (16
// nodes, 4 KB pages, 320 ns local / 5 µs remote word access, 1.1 µs/word
// block transfer) and runs the PLATINUM kernel on it: a Mach-modelled
// virtual memory layer over a coherent memory system that transparently
// replicates and migrates pages, freezes pages that are write-shared at
// fine grain, and thaws them with a defrost daemon. Programs written
// against the kernel's thread/port/zone API perform real computation on
// the simulated memory, and all timing (speedups, contention) emerges
// from the memory system's behaviour.
//
// # Quick start
//
//	k, err := platinum.Boot(platinum.DefaultConfig())
//	if err != nil { ... }
//	sp := k.NewSpace()
//	va, _ := sp.AllocWords("shared", 1024, platinum.Read|platinum.Write)
//	k.Spawn("writer", 0, sp, func(t *platinum.Thread) { t.Write(va, 42) })
//	k.Spawn("reader", 1, sp, func(t *platinum.Thread) {
//	    t.WaitAtLeast(va, 42) // spins; replication/freezing happen underneath
//	})
//	if err := k.Run(); err != nil { ... }
//	k.Report().WriteTo(os.Stdout) // the paper's §4.2 instrumentation
//
// # Layout
//
// The implementation lives in internal packages mirroring the paper's
// structure: internal/sim (deterministic discrete-event engine),
// internal/mach (the NUMA machine timing model), internal/phys
// (frames + inverted page tables), internal/core (the coherent memory
// system: Cpage/Cmap, the four-state protocol, NUMA shootdown, the
// replication policy and defrost daemon), internal/vm (memory objects
// and address spaces), internal/kernel (threads, ports, zones),
// internal/uma and internal/baseline (the comparison systems), and
// internal/exp (the experiment harness regenerating the paper's tables
// and figures — see cmd/platinum-bench).
package platinum

import (
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
)

// Core kernel surface (aliases into the implementation packages; the
// alias form keeps one set of method documentation).
type (
	// Config configures the machine and kernel; see DefaultConfig.
	Config = kernel.Config
	// Kernel is a booted simulated machine.
	Kernel = kernel.Kernel
	// Thread is a kernel-scheduled thread bound to a processor.
	Thread = kernel.Thread
	// Space is an address space with page-aligned allocation zones.
	Space = kernel.Space
	// Port is a globally named message queue.
	Port = kernel.Port
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Rights are page access rights.
	Rights = core.Rights
	// Policy decides replication/migration vs. freezing on faults.
	Policy = core.Policy
	// Report is the kernel's per-page post-mortem instrumentation.
	Report = core.Report
	// MachineConfig holds the hardware cost parameters.
	MachineConfig = mach.Config
	// Topology is the declarative machine description: node count,
	// distance matrix, switch contention domains and memory tiers.
	// See TOPOLOGY.md for the on-disk format.
	Topology = mach.Topology
	// MemTier is one node's memory technology (per-mille read/write
	// multipliers over the base module latencies).
	MemTier = mach.MemTier
	// SwitchLevel is one level of switch contention domains.
	SwitchLevel = mach.SwitchLevel
	// CoreConfig holds the coherent memory system parameters.
	CoreConfig = core.Config
	// Event is one recorded protocol event (see Kernel.EnableTrace).
	Event = core.Event
	// EventKind classifies protocol events.
	EventKind = core.EventKind
	// Cause classifies why virtual time was charged to a thread.
	Cause = sim.Cause
	// Account is virtual time accumulated by cause (see Kernel.NodeAccounts).
	Account = sim.Account
	// MetricsReport is the full structured run report (schema_version 1).
	MetricsReport = metrics.Report
)

// Cost-attribution causes (the paper's §6–§8 decomposition of where
// execution time goes).
const (
	CauseUnattributed  = sim.CauseUnattributed
	CauseCompute       = sim.CauseCompute
	CauseLocalAccess   = sim.CauseLocalAccess
	CauseRemoteAccess  = sim.CauseRemoteAccess
	CauseBlockTransfer = sim.CauseBlockTransfer
	CauseFault         = sim.CauseFault
	CauseShootdown     = sim.CauseShootdown
	CauseQueue         = sim.CauseQueue
	CauseSync          = sim.CauseSync
	CauseKernel        = sim.CauseKernel
)

// Protocol trace event kinds.
const (
	EvReadFault    = core.EvReadFault
	EvWriteFault   = core.EvWriteFault
	EvReplication  = core.EvReplication
	EvMigration    = core.EvMigration
	EvInvalidation = core.EvInvalidation
	EvRemoteMap    = core.EvRemoteMap
	EvFreeze       = core.EvFreeze
	EvThaw         = core.EvThaw
)

// Access rights.
const (
	Read  = core.Read
	Write = core.Write
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultT1 is the paper's replication-policy window (10 ms).
const DefaultT1 = core.DefaultT1

// DefaultConfig returns the paper's Butterfly Plus machine with the
// PLATINUM freeze/defrost policy (t1 = 10 ms, defrost every 1 s).
func DefaultConfig() Config { return kernel.DefaultConfig() }

// Boot builds the machine and kernel and starts the defrost daemon.
func Boot(cfg Config) (*Kernel, error) { return kernel.Boot(cfg) }

// ButterflyPlus returns the paper's 16-node Butterfly Plus as a
// built-in topology; it reproduces every table of the historical
// Config path byte-identically.
func ButterflyPlus() *Topology { return mach.ButterflyPlus() }

// Butterfly1 returns the first-generation BBN Butterfly as a built-in
// topology.
func Butterfly1() *Topology { return mach.Butterfly1() }

// LoadTopology reads and validates a topology JSON file (the format
// specified in TOPOLOGY.md).
func LoadTopology(path string) (*Topology, error) { return mach.LoadTopology(path) }

// ParseTopology parses and validates topology JSON bytes.
func ParseTopology(data []byte) (*Topology, error) { return mach.ParseTopology(data) }

// NewPlatinumPolicy returns the paper's interim policy: replicate or
// migrate unless the page was invalidated within the last t1; freeze
// otherwise. thawOnFault selects the §4.2 alternative that thaws on the
// first post-window fault instead of waiting for the defrost daemon.
func NewPlatinumPolicy(t1 Time, thawOnFault bool) Policy {
	return core.NewPlatinumPolicy(t1, thawOnFault)
}

// AlwaysCache returns the DSM-style policy that replicates or migrates
// on every fault (no interference detection).
func AlwaysCache() Policy { return core.AlwaysCache{} }

// NeverCache returns the static-placement policy that never moves data.
func NeverCache() Policy { return core.NeverCache{} }

// MigrateOnce returns the ACE-style policy: written pages move at most
// limit times before being frozen permanently.
func MigrateOnce(limit int64) Policy { return core.MigrateOnce{Limit: limit} }
