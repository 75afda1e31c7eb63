package mach

import (
	"cmp"
	"fmt"
	"slices"

	"platinum/internal/sim"
)

// DistScale is the per-mille unit of distance-matrix entries and memory
// tier multipliers: 1000 means "exactly the base latency". SLIT-style
// matrices scale naturally (ACPI's 10 becomes 1000).
const DistScale = 1000

// MemTier describes one node's memory technology as per-mille
// multipliers over the machine's base module latencies. The zero value
// (or 1000/1000) is the base DRAM tier; an NVM-style tier might read at
// 3000 (3x slower) and write at 8000. The multipliers scale both the
// access latency and the module occupancy, so slow tiers also congest:
// requests queue behind slow accesses exactly as they would in
// hardware. Block transfers run at the rate of the slower side (the
// maximum of the source tier's read and the destination tier's write
// multiplier), so a dirty page written back from — or flushed into — a
// slow tier is charged at that tier's rate.
type MemTier struct {
	// Name labels the tier in reports ("dram", "nvm", ...). Optional.
	Name string

	// ReadMul/WriteMul are per-mille multipliers (DistScale = 1000 =
	// base rate). Zero means 1000, keeping the zero value a valid DRAM
	// tier; negative values are rejected by Validate.
	ReadMul  int
	WriteMul int
}

// readMul returns the effective per-mille read multiplier.
func (t MemTier) readMul() int {
	if t.ReadMul == 0 {
		return DistScale
	}
	return t.ReadMul
}

// writeMul returns the effective per-mille write multiplier.
func (t MemTier) writeMul() int {
	if t.WriteMul == 0 {
		return DistScale
	}
	return t.WriteMul
}

// SwitchLevel is one level of a multi-level interconnect, partitioning
// the nodes into contention domains. Every remote transfer whose
// endpoints fall in different domains at this level passes through both
// endpoint domains' switches, occupying each for PerWord per word —
// switch levels model *contention* (serialization and queueing), while
// the distance matrix models *latency*. A machine with no levels (the
// paper's single-stage Butterfly switch) has no switch serialization
// beyond the memory modules themselves, exactly as before.
type SwitchLevel struct {
	// Domain maps node index to the id of its contention domain at
	// this level. Length must equal the node count; ids must be dense
	// non-negative integers (0..max).
	Domain []int

	// PerWord is how long one transferred word occupies each endpoint
	// domain switch. Zero disables serialization at this level (the
	// level then only documents structure).
	PerWord sim.Time
}

// domains returns the number of distinct domains (max id + 1).
func (l *SwitchLevel) domains() int {
	max := -1
	for _, d := range l.Domain {
		if d > max {
			max = d
		}
	}
	return max + 1
}

// Topology is the declarative description of a simulated NUMA machine:
// the base cost constants (Config), and three optional generalizations —
// a per-pair distance matrix, multi-level switch contention domains,
// and per-node memory tiers. A Topology with none of the options set is
// exactly the uniform machine Config has always described: every
// multiplier is DistScale, which the cost code applies as exact
// identity, so the paper's tables are byte-for-byte unchanged (the
// quick-experiment goldens in internal/exp pin them). The on-disk JSON
// form is specified in TOPOLOGY.md and loaded by
// LoadTopology/ParseTopology.
type Topology struct {
	// Name labels the topology in reports and pool keys.
	Name string

	// Base holds the node count, page size, and base cost constants.
	Base Config

	// Distance is the SLIT-style per-pair latency matrix, flattened
	// row-major: Distance[i*Nodes+j] is the per-mille multiplier
	// applied to the base latency of an access from node i to node j.
	// Off-diagonal entries scale the remote latencies (RemoteRead,
	// RemoteWrite, BlockCopyPerWord, InterruptDispatch); diagonal
	// entries scale the local latencies and are normally exactly
	// DistScale. Nil means uniform (all off-diagonal entries
	// DistScale). Validate rejects non-square, asymmetric, and
	// non-positive (including zero-diagonal) matrices.
	Distance []int

	// Levels are the switch contention domains, ordered from the
	// innermost (e.g. cluster) outward. Nil means the single-level
	// switch of the paper's machine.
	Levels []SwitchLevel

	// Tiers assigns a memory tier to each node. Nil means every node
	// is base DRAM. Length must equal the node count.
	Tiers []MemTier
}

// UniformTopology wraps bare cost constants in the uniform topology
// they have always described. It is what New uses internally, and the
// migration path for code holding a Config.
func UniformTopology(cfg Config) *Topology {
	return &Topology{Base: cfg}
}

// ButterflyPlus returns the paper's machine — the 16-node BBN Butterfly
// Plus of DefaultConfig — as a built-in topology. All experiment tables
// produced on it are byte-identical to the historical Config path.
func ButterflyPlus() *Topology {
	return &Topology{Name: "butterfly-plus", Base: DefaultConfig()}
}

// Butterfly1 returns the first-generation BBN Butterfly of
// Butterfly1Config as a built-in topology.
func Butterfly1() *Topology {
	return &Topology{Name: "butterfly-1", Base: Butterfly1Config()}
}

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.Base.Nodes }

// DistanceMul returns the per-mille distance multiplier from node i to
// node j (DistScale on uniform machines).
func (t *Topology) DistanceMul(i, j int) int {
	if t.Distance == nil {
		return DistScale
	}
	return t.Distance[i*t.Base.Nodes+j]
}

// TierOf returns node i's memory tier (the base DRAM tier when Tiers
// is nil).
func (t *Topology) TierOf(i int) MemTier {
	if t.Tiers == nil {
		return MemTier{}
	}
	return t.Tiers[i]
}

// Validate reports the first structural error in the topology. The
// rules (also documented in TOPOLOGY.md):
//
//   - the base Config must itself validate;
//   - Distance, when present, must have exactly Nodes² entries, every
//     entry must be positive (a zero diagonal is the classic SLIT
//     encoding mistake and is rejected explicitly), and the matrix
//     must be symmetric — the simulated switch has no one-way links;
//   - every SwitchLevel must assign a domain to exactly the Nodes
//     nodes, with dense non-negative ids and a non-negative PerWord;
//   - Tiers, when present, must have exactly Nodes entries with
//     non-negative multipliers.
func (t *Topology) Validate() error {
	if err := t.Base.Validate(); err != nil {
		return err
	}
	n := t.Base.Nodes
	if t.Distance != nil {
		if len(t.Distance) != n*n {
			return fmt.Errorf("mach: distance matrix has %d entries, want %d (%d nodes squared)",
				len(t.Distance), n*n, n)
		}
		for i := 0; i < n; i++ {
			if d := t.Distance[i*n+i]; d <= 0 {
				return fmt.Errorf("mach: distance matrix diagonal [%d][%d] = %d, must be positive (local distance, normally %d)",
					i, i, d, DistScale)
			}
			for j := 0; j < n; j++ {
				d := t.Distance[i*n+j]
				if d <= 0 {
					return fmt.Errorf("mach: distance matrix [%d][%d] = %d, must be positive", i, j, d)
				}
				if back := t.Distance[j*n+i]; back != d {
					return fmt.Errorf("mach: distance matrix asymmetric: [%d][%d] = %d but [%d][%d] = %d",
						i, j, d, j, i, back)
				}
			}
		}
	}
	for li := range t.Levels {
		l := &t.Levels[li]
		if len(l.Domain) != n {
			return fmt.Errorf("mach: switch level %d assigns %d nodes, machine has %d", li, len(l.Domain), n)
		}
		if l.PerWord < 0 {
			return fmt.Errorf("mach: switch level %d has negative PerWord", li)
		}
		seen := make([]bool, n)
		max := -1
		for node, d := range l.Domain {
			if d < 0 {
				return fmt.Errorf("mach: switch level %d gives node %d negative domain %d", li, node, d)
			}
			if d >= n {
				return fmt.Errorf("mach: switch level %d gives node %d domain %d, ids must be < %d", li, node, d, n)
			}
			seen[d] = true
			if d > max {
				max = d
			}
		}
		for d := 0; d <= max; d++ {
			if !seen[d] {
				return fmt.Errorf("mach: switch level %d has no node in domain %d (ids must be dense)", li, d)
			}
		}
	}
	if t.Tiers != nil {
		if len(t.Tiers) != n {
			return fmt.Errorf("mach: %d memory tiers for %d nodes", len(t.Tiers), n)
		}
		for i, tier := range t.Tiers {
			if tier.ReadMul < 0 || tier.WriteMul < 0 {
				return fmt.Errorf("mach: node %d tier %q has negative multiplier", i, tier.Name)
			}
		}
	}
	return nil
}

// PlaceOrder returns the order in which frame allocation for a fault on
// proc should try modules: proc's own module first, then the rest by
// ascending distance, faster memory tier before slower at equal
// distance, index order breaking remaining ties. On uniform machines
// this is exactly the historical order (self, then index order), so
// placement decisions — and therefore all tables — are unchanged.
// Orders are computed once per node and cached; the returned slice must
// not be modified.
func (m *Machine) PlaceOrder(proc int) []int32 {
	if m.placeOrder == nil {
		m.placeOrder = make([][]int32, m.cfg.Nodes)
	}
	if ord := m.placeOrder[proc]; ord != nil {
		return ord
	}
	n := m.cfg.Nodes
	ord := make([]int32, 1, n)
	ord[0] = int32(proc) // self first: local distance beats any remote
	for i := 0; i < n; i++ {
		if i != proc {
			ord = append(ord, int32(i))
		}
	}
	// Index breaks every remaining tie, so the order is total and an
	// unstable sort has exactly one possible result.
	t := m.topo
	slices.SortFunc(ord[1:], func(a, b int32) int {
		if c := cmp.Compare(t.DistanceMul(proc, int(a)), t.DistanceMul(proc, int(b))); c != 0 {
			return c
		}
		if c := cmp.Compare(t.TierOf(int(a)).readMul(), t.TierOf(int(b)).readMul()); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	m.placeOrder[proc] = ord
	return ord
}

// InterruptDispatchTo returns the cost of dispatching one shootdown
// interrupt from initiator to target: the base InterruptDispatch scaled
// by the pair's distance multiplier. On uniform machines this is
// exactly InterruptDispatch, keeping the paper's 7 µs incremental
// shootdown cost; on skewed machines far targets cost proportionally
// more, which is what makes shootdown fan-out topology-sensitive.
func (m *Machine) InterruptDispatchTo(initiator, target int) sim.Time {
	return scaleMul(m.cfg.InterruptDispatch, m.topo.DistanceMul(initiator, target))
}

// WordLatency returns the latency of n word accesses from processor
// proc to module mod — distance- and tier-scaled — without occupying the module or charging any thread.
// It is the cost model for posted, fire-and-forget memory updates the
// issuing processor does not wait on at the module, such as the
// write-through maintenance of page-table replicas (core.PTReplicate).
func (m *Machine) WordLatency(proc, mod, n int, write bool) sim.Time {
	if n <= 0 {
		return 0
	}
	lat, _ := m.wordCost(proc, mod, n, write)
	return lat
}

// ReplicaHomes returns the nodes that hold a page-table replica under
// per-domain replication (core.PTReplicate): the lowest-numbered node
// of each level-0 switch domain, or every node when the machine has no
// contended switch levels (each node then keeps a private replica).
// The slice is computed once and cached; callers must not modify it.
func (m *Machine) ReplicaHomes() []int32 {
	m.buildReplicaHomes()
	return m.replicaHomes
}

// ReplicaHomeOf returns the replica home serving proc: the node whose
// page-table replica proc's translation hardware walks.
func (m *Machine) ReplicaHomeOf(proc int) int {
	m.buildReplicaHomes()
	return int(m.replicaOf[proc])
}

// buildReplicaHomes computes the ReplicaHomes/ReplicaHomeOf tables.
// The topology is immutable for the machine's lifetime (Reset keeps
// it), so the tables survive resets like placeOrder does.
func (m *Machine) buildReplicaHomes() {
	if m.replicaOf != nil {
		return
	}
	n := m.cfg.Nodes
	m.replicaOf = make([]int32, n)
	if len(m.topo.Levels) == 0 {
		m.replicaHomes = make([]int32, n)
		for i := 0; i < n; i++ {
			m.replicaHomes[i] = int32(i)
			m.replicaOf[i] = int32(i)
		}
		return
	}
	dom := m.topo.Levels[0].Domain
	first := map[int]int32{}
	for i := 0; i < n; i++ {
		if _, ok := first[dom[i]]; !ok {
			first[dom[i]] = int32(i)
			m.replicaHomes = append(m.replicaHomes, int32(i))
		}
		m.replicaOf[i] = first[dom[i]]
	}
}

// scaleMul applies a per-mille multiplier to a duration.
func scaleMul(d sim.Time, mul int) sim.Time {
	if mul == DistScale {
		return d
	}
	return d * sim.Time(mul) / DistScale
}
