package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
)

// The topo-* experiments leave the paper's 16-node Butterfly Plus and
// sweep generalized topologies (see mach.Topology and TOPOLOGY.md):
// machine sizes the 1989 hardware never reached, distance-skewed
// clustered interconnects, and hybrid memory tiers. They all run
// TopoMix (see internal/apps), a verified microworkload with constant
// per-processor work, so elapsed time isolates how the machine and the
// coherency protocol scale rather than how a problem grows.

func init() {
	register(Experiment{
		ID:    "topo-nodes",
		Paper: "beyond §4: protocol scaling with machine size (16 to 1024 nodes)",
		Run:   runTopoNodes,
	})
	register(Experiment{
		ID:    "topo-skew",
		Paper: "beyond §4: sensitivity to NUMA distance skew (64-node clusters)",
		Run:   runTopoSkew,
	})
	register(Experiment{
		ID:    "topo-tiers",
		Paper: "beyond §4: hybrid DRAM/NVM memory tiers",
		Run:   runTopoTiers,
	})
	register(Experiment{
		ID:    "topo-custom",
		Paper: "beyond §4: user-supplied topology (platinum-bench -topology)",
		Run:   runTopoCustom,
	})
}

// sweepBase returns the base cost constants the topology sweeps use:
// the paper's Butterfly Plus timings with smaller (1 KB) pages and the
// given node count. Smaller pages keep 1024-node replication affordable
// and exercise the protocol harder per word.
func sweepBase(nodes int) mach.Config {
	base := mach.DefaultConfig()
	base.Nodes = nodes
	base.PageWords = 256
	return base
}

// clusterTopology builds an n-node machine of clusterSize-node clusters:
// intra-cluster distance DistScale, inter-cluster distance far
// (per-mille), and one contended switch level per cluster (50 ns/word).
// With far == DistScale the distance matrix is omitted entirely and only
// the switch contention generalizes the machine.
func clusterTopology(nodes, clusterSize, far int) *mach.Topology {
	t := &mach.Topology{
		Name: fmt.Sprintf("cluster-%dx%d-far%d", nodes, clusterSize, far),
		Base: sweepBase(nodes),
	}
	if far != mach.DistScale {
		dist := make([]int, nodes*nodes)
		for i := 0; i < nodes; i++ {
			for j := 0; j < nodes; j++ {
				if i/clusterSize == j/clusterSize {
					dist[i*nodes+j] = mach.DistScale
				} else {
					dist[i*nodes+j] = far
				}
			}
		}
		t.Distance = dist
	}
	domain := make([]int, nodes)
	for i := range domain {
		domain[i] = i / clusterSize
	}
	t.Levels = []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}}
	return t
}

// topoPolicies are the replication policies the sweeps compare. Each
// run builds a fresh policy instance so concurrent simulations never
// share policy state.
var topoPolicies = []struct {
	name string
	mk   func() core.Policy
}{
	{"platinum", func() core.Policy { return core.NewPlatinumPolicy(core.DefaultT1, false) }},
	{"always-cache", func() core.Policy { return core.AlwaysCache{} }},
	{"never-cache", func() core.Policy { return core.NeverCache{} }},
}

// topoResult is one sweep data point.
type topoResult struct {
	elapsed sim.Time
	acct    sim.Account
	freezes int64
	thaws   int64
}

// Platform-pool key namespaces for runTopoMixAt. A user-supplied
// topology's keys start with customKeys, which no built-in sweep
// point's key can produce (no built-in topology's Name starts with
// "custom:"), so a user topology named like a built-in one never
// shares its platforms.
const (
	builtinKeys = "topomix:"
	customKeys  = "topomix:custom:"
)

// runTopoMixAt runs TopoMix on the given topology under the given
// policy and returns the data point, after verifying the per-cause
// attribution conservation invariant. The platform pool is keyed by
// ns, the topology's Name and the policy, so within ns the Name must
// encode every parameter that distinguishes a topology
// (clusterTopology's does).
func runTopoMixAt(ns string, topo *mach.Topology, poli int, mix apps.TopoMixConfig) (topoResult, error) {
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = topo
	// TopoMix touches ~15 pages per module at peak; 32 frames per module
	// keeps a 1024-node machine's physical-memory metadata small.
	kcfg.Core.FramesPerModule = 32
	kcfg.Core.Policy = topoPolicies[poli].mk()
	key := fmt.Sprintf("%s%s:pol=%s", ns, topo.Name, topoPolicies[poli].name)
	pl, err := apps.AcquirePlatform(key, kcfg)
	if err != nil {
		return topoResult{}, err
	}
	r, err := apps.RunTopoMix(pl, mix)
	if err != nil {
		return topoResult{}, err // failed runs are not pooled
	}
	accts := pl.Accounts()
	if err := metrics.CheckConservation(accts); err != nil {
		return topoResult{}, fmt.Errorf("%s under %s: %w", topo.Name, topoPolicies[poli].name, err)
	}
	res := topoResult{elapsed: r.Elapsed, acct: total(accts)}
	for _, pg := range pl.K.Report().Pages {
		res.freezes += pg.Freezes
		res.thaws += pg.Thaws
	}
	apps.ReleasePlatform(key, pl)
	return res, nil
}

func runTopoNodes(o Options) (*Table, error) {
	nodeCounts := []int{16, 64, 256, 1024}
	if o.Quick {
		nodeCounts = []int{16, 64}
	}
	t := &Table{
		ID:    "topo-nodes",
		Title: "TopoMix scaling with machine size (16-node clusters, far=2000)",
		Header: []string{
			"nodes", "policy", "elapsed", "scaled-eff", "remote-frac", "fault-frac",
		},
		Notes: []string{
			"constant work per processor: ideal scaling keeps elapsed flat;",
			"scaled-eff: T(smallest machine)/T(n) for the same policy",
		},
	}
	results := make([]topoResult, len(nodeCounts)*len(topoPolicies))
	err := forEach(o, len(results), func(i int) error {
		nodes := nodeCounts[i/len(topoPolicies)]
		topo := clusterTopology(nodes, 16, 2000)
		r, err := runTopoMixAt(builtinKeys, topo, i%len(topoPolicies), apps.DefaultTopoMixConfig(nodes, 256))
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		nodes, poli := nodeCounts[i/len(topoPolicies)], i%len(topoPolicies)
		base := results[poli].elapsed // same policy on the smallest machine
		remote, fault := fracs(r.acct)
		t.Rows = append(t.Rows, []string{
			itoa(nodes), topoPolicies[poli].name, r.elapsed.String(),
			f2(float64(base) / float64(r.elapsed)), remote, fault,
		})
	}
	return t, nil
}

func runTopoSkew(o Options) (*Table, error) {
	fars := []int{1000, 2000, 4000, 8000}
	if o.Quick {
		fars = []int{1000, 4000}
	}
	t := &Table{
		ID:    "topo-skew",
		Title: "TopoMix vs NUMA distance skew (64 nodes, 8-node clusters, PLATINUM policy)",
		Header: []string{
			"far-dist", "elapsed", "remote-frac", "fault-frac", "freezes", "thaws",
		},
		Notes: []string{
			"far-dist: per-mille inter-cluster distance (1000 = flat machine);",
			"freeze/thaw counts show the policy reacting to costlier sharing",
		},
	}
	results := make([]topoResult, len(fars))
	err := forEach(o, len(results), func(i int) error {
		topo := clusterTopology(64, 8, fars[i])
		r, err := runTopoMixAt(builtinKeys, topo, 0, apps.DefaultTopoMixConfig(64, 256))
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		remote, fault := fracs(r.acct)
		t.Rows = append(t.Rows, []string{
			itoa(fars[i]), r.elapsed.String(), remote, fault,
			fmt.Sprintf("%d", r.freezes), fmt.Sprintf("%d", r.thaws),
		})
	}
	return t, nil
}

// nvmTopology is a 16-node machine where every odd node's memory is an
// NVM-style tier: reads 3x, writes 8x the DRAM rate.
func nvmTopology() *mach.Topology {
	const nodes = 16
	tiers := make([]mach.MemTier, nodes)
	for i := range tiers {
		if i%2 == 1 {
			tiers[i] = mach.MemTier{Name: "nvm", ReadMul: 3000, WriteMul: 8000}
		} else {
			tiers[i] = mach.MemTier{Name: "dram"}
		}
	}
	return &mach.Topology{Name: "hybrid-nvm-16", Base: sweepBase(nodes), Tiers: tiers}
}

func runTopoTiers(o Options) (*Table, error) {
	t := &Table{
		ID:    "topo-tiers",
		Title: "TopoMix on hybrid memory (16 nodes, NVM on odd nodes: read 3x, write 8x)",
		Header: []string{
			"memory", "policy", "elapsed", "remote-frac", "fault-frac",
		},
		Notes: []string{
			"tier multipliers charge every access to an NVM-resident page, so a",
			"migrating policy that moves pages to NVM nodes' own modules pays the",
			"write penalty; initial placement prefers DRAM at equal distance",
		},
	}
	topos := []func() *mach.Topology{
		func() *mach.Topology {
			return &mach.Topology{Name: "all-dram-16", Base: sweepBase(16)}
		},
		nvmTopology,
	}
	labels := []string{"all DRAM", "DRAM+NVM"}
	polis := []int{0, 2} // platinum, never-cache
	results := make([]topoResult, len(topos)*len(polis))
	err := forEach(o, len(results), func(i int) error {
		topo := topos[i/len(polis)]()
		r, err := runTopoMixAt(builtinKeys, topo, polis[i%len(polis)], apps.DefaultTopoMixConfig(16, 256))
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		remote, fault := fracs(r.acct)
		t.Rows = append(t.Rows, []string{
			labels[i/len(polis)], topoPolicies[polis[i%len(polis)]].name,
			r.elapsed.String(), remote, fault,
		})
	}
	return t, nil
}

func runTopoCustom(o Options) (*Table, error) {
	t := &Table{
		ID:    "topo-custom",
		Title: "TopoMix on a user-supplied topology",
		Header: []string{
			"topology", "policy", "elapsed", "remote-frac", "fault-frac", "freezes", "thaws",
		},
		Notes: []string{
			"supply a topology with: platinum-bench -topology file.json topo-custom;",
			"the file format is specified in TOPOLOGY.md",
		},
	}
	if o.Topology == nil {
		t.Rows = append(t.Rows, []string{
			"(none: pass -topology file.json)", "-", "-", "-", "-", "-", "-",
		})
		return t, nil
	}
	topo := o.Topology
	nodes := topo.Nodes()
	mix := apps.DefaultTopoMixConfig(nodes, topo.Base.PageWords)
	results := make([]topoResult, len(topoPolicies))
	err := forEach(o, len(results), func(i int) error {
		r, err := runTopoMixAt(customKeys, topo, i, mix)
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	name := topo.Name
	if name == "" {
		name = fmt.Sprintf("unnamed-%d-node", nodes)
	}
	for i, r := range results {
		remote, fault := fracs(r.acct)
		t.Rows = append(t.Rows, []string{
			name, topoPolicies[i].name, r.elapsed.String(), remote, fault,
			fmt.Sprintf("%d", r.freezes), fmt.Sprintf("%d", r.thaws),
		})
	}
	return t, nil
}
