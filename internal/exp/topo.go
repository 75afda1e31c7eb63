package exp

import (
	"fmt"
	"sync"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
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

// builtinTopos memoizes the built-in sweep machines by name (each name
// encodes every parameter of its machine), so each is built once per
// process and the Topology pointer a pool key compares names one
// machine.
var (
	builtinMu    sync.Mutex
	builtinTopos = map[string]*mach.Topology{}
)

// builtinTopology returns the built-in machine called name, building it
// with build on first use.
func builtinTopology(name string, build func(name string) *mach.Topology) *mach.Topology {
	builtinMu.Lock()
	defer builtinMu.Unlock()
	t, ok := builtinTopos[name]
	if !ok {
		t = build(name)
		builtinTopos[name] = t
	}
	return t
}

// clusterTopology returns the n-node machine of clusterSize-node
// clusters: intra-cluster distance DistScale, inter-cluster distance
// far (per-mille), and one contended switch level per cluster
// (50 ns/word). With far == DistScale the distance matrix is omitted
// entirely and only the switch contention generalizes the machine.
func clusterTopology(nodes, clusterSize, far int) *mach.Topology {
	name := fmt.Sprintf("cluster-%dx%d-far%d", nodes, clusterSize, far)
	return builtinTopology(name, func(name string) *mach.Topology {
		t := &mach.Topology{Name: name, Base: sweepBase(nodes)}
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
	})
}

// topoPolicies are the replication policies the sweeps compare.
var topoPolicies = []struct {
	name string
	pol  core.Policy
}{
	{"platinum", core.NewPlatinumPolicy(core.DefaultT1, false)},
	{"always-cache", core.AlwaysCache{}},
	{"never-cache", core.NeverCache{}},
}

// topoMixSpec is TopoMix on topo under topoPolicies[poli], pooled.
func topoMixSpec(topo *mach.Topology, poli int, mix apps.TopoMixConfig) runSpec {
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = topo
	// TopoMix touches ~15 pages per module at peak; 32 frames per module
	// keeps a 1024-node machine's physical-memory metadata small.
	kcfg.Core.FramesPerModule = 32
	kcfg.Core.Policy = topoPolicies[poli].pol
	return runSpec{prog: topoMix, app: mix, kcfg: kcfg}
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
	var specs []runSpec
	for _, nodes := range nodeCounts {
		for poli := range topoPolicies {
			specs = append(specs, topoMixSpec(clusterTopology(nodes, 16, 2000), poli, apps.DefaultTopoMixConfig(nodes, 256)))
		}
	}
	results, err := runAll(o, specs)
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
	specs := make([]runSpec, len(fars))
	for i, far := range fars {
		specs[i] = topoMixSpec(clusterTopology(64, 8, far), 0, apps.DefaultTopoMixConfig(64, 256))
	}
	results, err := runAll(o, specs)
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

// dramTopology is the 16-node sweep machine with DRAM on every node.
func dramTopology() *mach.Topology {
	return builtinTopology("all-dram-16", func(name string) *mach.Topology {
		return &mach.Topology{Name: name, Base: sweepBase(16)}
	})
}

// nvmTopology is a 16-node machine where every odd node's memory is an
// NVM-style tier: reads 3x, writes 8x the DRAM rate.
func nvmTopology() *mach.Topology {
	return builtinTopology("hybrid-nvm-16", func(name string) *mach.Topology {
		const nodes = 16
		tiers := make([]mach.MemTier, nodes)
		for i := range tiers {
			if i%2 == 1 {
				tiers[i] = mach.MemTier{Name: "nvm", ReadMul: 3000, WriteMul: 8000}
			} else {
				tiers[i] = mach.MemTier{Name: "dram"}
			}
		}
		return &mach.Topology{Name: name, Base: sweepBase(nodes), Tiers: tiers}
	})
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
	topos := []*mach.Topology{dramTopology(), nvmTopology()}
	labels := []string{"all DRAM", "DRAM+NVM"}
	polis := []int{0, 2} // platinum, never-cache
	var specs []runSpec
	for _, topo := range topos {
		for _, poli := range polis {
			specs = append(specs, topoMixSpec(topo, poli, apps.DefaultTopoMixConfig(16, 256)))
		}
	}
	results, err := runAll(o, specs)
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
	specs := make([]runSpec, len(topoPolicies))
	for poli := range topoPolicies {
		specs[poli] = topoMixSpec(topo, poli, mix)
	}
	results, err := runAll(o, specs)
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
