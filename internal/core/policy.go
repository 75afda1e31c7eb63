package core

import (
	"fmt"

	"platinum/internal/sim"
)

// DefaultT1 is the paper's replication-policy window: a page is frozen
// rather than replicated if it was invalidated within the last 10 ms.
const DefaultT1 = 10 * sim.Millisecond

// Decision is a replication policy's verdict for one coherent fault.
type Decision struct {
	// Cache: replicate (read miss) or migrate (write miss) the page so
	// the faulting processor uses local memory. When false the fault is
	// resolved with a remote mapping.
	Cache bool
	// Freeze: additionally freeze the page, putting it on the defrost
	// daemon's list. Only meaningful when Cache is false.
	Freeze bool
}

// Policy decides, on each coherent fault with no usable local copy,
// whether to move data to the faulting processor or to map it remotely
// (§4.2). Implementations may consult the Cpage's invalidation history
// and statistics, which is where a page's history lives: a policy holds
// no mutable state, and it is comparable. So one policy value serves
// any number of machines, also concurrently; a platform reused from
// apps' pool keeps the policy it booted with; and the pool compares
// kernel configs, policy included, with == (a pointer policy by
// identity).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide is consulted by the fault handler. write reports whether
	// the fault is a write fault.
	Decide(cp *Cpage, now sim.Time, write bool) Decision
}

// PlatinumPolicy is the paper's interim policy: replicate or migrate
// unless the page was invalidated by the coherency protocol within the
// last T1; in that case freeze it. A frozen page stays frozen — new
// faults keep creating remote mappings — until the defrost daemon thaws
// it, unless ThawOnFault is set, in which case a fault after the T1
// window thaws the page itself (§4.2 describes both variants and found
// no significant difference between them).
type PlatinumPolicy struct {
	T1          sim.Time
	ThawOnFault bool
}

// NewPlatinumPolicy returns the paper's policy with window t1.
func NewPlatinumPolicy(t1 sim.Time, thawOnFault bool) *PlatinumPolicy {
	return &PlatinumPolicy{T1: t1, ThawOnFault: thawOnFault}
}

// Name implements Policy.
func (p *PlatinumPolicy) Name() string {
	if p.ThawOnFault {
		return fmt.Sprintf("platinum(t1=%v,thaw-on-fault)", p.T1)
	}
	return fmt.Sprintf("platinum(t1=%v)", p.T1)
}

// Decide implements Policy.
func (p *PlatinumPolicy) Decide(cp *Cpage, now sim.Time, write bool) Decision {
	quiet := cp.Stats.Invalidations == 0 || now-cp.lastInval >= p.T1
	if cp.frozen {
		if p.ThawOnFault && quiet {
			return Decision{Cache: true}
		}
		return Decision{Freeze: true}
	}
	if quiet {
		return Decision{Cache: true}
	}
	return Decision{Freeze: true}
}

// AlwaysCache replicates or migrates on every fault, like a software
// DSM (Li's shared virtual memory) with no interference detection. It
// is the baseline that suffers under fine-grain write sharing.
type AlwaysCache struct{}

// Name implements Policy.
func (AlwaysCache) Name() string { return "always-cache" }

// Decide implements Policy.
func (AlwaysCache) Decide(*Cpage, sim.Time, bool) Decision { return Decision{Cache: true} }

// NeverCache never replicates or migrates: every fault resolves to a
// mapping of the existing copy, so data stays where it was first
// touched. This models static placement (the Uniform System style).
// Pages are not put on the defrost list — there is nothing to thaw into.
type NeverCache struct{}

// Name implements Policy.
func (NeverCache) Name() string { return "never-cache" }

// Decide implements Policy.
func (NeverCache) Decide(*Cpage, sim.Time, bool) Decision { return Decision{} }

// MigrateOnce models the ACE NUMA management Bolosky et al. describe:
// read-only pages replicate freely, but a page that has ever been
// written may move only Limit times before being frozen permanently
// (the defrost daemon ignores permanently frozen pages only if the
// policy keeps refreezing them, which this one does).
type MigrateOnce struct {
	// Limit is the number of moves a written page is allowed.
	Limit int64
}

// Name implements Policy.
func (p MigrateOnce) Name() string { return fmt.Sprintf("migrate-once(limit=%d)", p.Limit) }

// Decide implements Policy.
func (p MigrateOnce) Decide(cp *Cpage, _ sim.Time, _ bool) Decision {
	if cp.Stats.WriteFaults == 0 {
		return Decision{Cache: true}
	}
	if cp.Stats.Migrations+cp.Stats.Replications < p.Limit {
		return Decision{Cache: true}
	}
	return Decision{Freeze: true}
}
