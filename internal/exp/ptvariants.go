package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/sim"
)

// pt-variants asks whether PLATINUM's coherency protocol holds up under
// modern page-table regimes (see core.PTConfig and DESIGN.md): the
// paper's free-walk/eager-shootdown baseline against a single-home page
// table (every ATC miss walks a possibly-remote table), Mitosis-style
// per-node replication (local walks, write-through installs), and
// numaPTE-style batched shootdown (deferred, per-target-coalesced
// invalidation costs). The sweep runs the Fig. 1 and Fig. 5 workloads
// on the paper's machine size and on clustered 64- and 256-node
// topologies, where table placement actually has distance to bite.

func init() {
	register(Experiment{
		ID:    "pt-variants",
		Paper: "beyond §4: page-table placement, replication, and batched shootdown",
		Run:   runPTVariants,
	})
}

// ptVariants are the compared page-table regimes. The batched variant
// composes with the single-home table so its walks are charged too —
// comparing it against pt-home isolates the shootdown change.
var ptVariants = []struct {
	name string
	cfg  core.PTConfig
}{
	{"paper", core.PTConfig{}},
	{"pt-home", core.PTConfig{Mode: core.PTHome}},
	{"pt-replicate", core.PTConfig{Mode: core.PTReplicate}},
	{"pt-batched", core.PTConfig{Mode: core.PTHome, BatchShootdown: true}},
}

// ptGaussN is the Gauss workload's matrix dimension.
const ptGaussN = 240

// ptWorkloads are the measured programs, the Fig. 1 Gaussian
// elimination and the Fig. 5 merge sort, at the quick sizes so the
// 256-node runs stay affordable.
var ptWorkloads = []program{gaussPlatinum, mergeSortPlatinum}

// ptSpec is workload wl under page-table variant v on the nodes-node
// sweep machine.
func ptSpec(nodes, wl, v int) runSpec {
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = ptTopology(nodes)
	kcfg.Core.PageTables = ptVariants[v].cfg
	s := runSpec{prog: ptWorkloads[wl], kcfg: kcfg}
	if s.prog == gaussPlatinum {
		s.app = apps.DefaultGaussConfig(ptGaussN, nodes)
	} else {
		cfg := apps.DefaultMergeSortConfig(nodes)
		cfg.Words = 1 << 15
		s.app = cfg
	}
	return s
}

// ptTopology returns the machine for one sweep point: the paper-sized
// uniform machine at 16 nodes, clustered distance-skewed machines
// beyond that (16-node clusters, inter-cluster distance 2000‰ — the
// topo-nodes sweep's shape, so results line up across experiments).
func ptTopology(nodes int) *mach.Topology {
	if nodes <= 16 {
		return builtinTopology("uniform-"+itoa(nodes), func(name string) *mach.Topology {
			return &mach.Topology{Name: name, Base: sweepBase(nodes)}
		})
	}
	return clusterTopology(nodes, 16, 2000)
}

// ptFrac formats d as a fraction of the account total.
func ptFrac(a sim.Account, c sim.Cause) string {
	t := a.Total()
	if t == 0 {
		return f3(0)
	}
	return f3(float64(a[c]) / float64(t))
}

func runPTVariants(o Options) (*Table, error) {
	nodeCounts := []int{16, 64, 256}
	if o.Quick {
		nodeCounts = []int{16, 64}
	}
	t := &Table{
		ID:    "pt-variants",
		Title: "page-table variants: Fig. 1/Fig. 5 workloads, eager vs replicated vs batched",
		Header: []string{
			"nodes", "workload", "variant", "elapsed",
			"walk-frac", "ptrep-frac", "batch-frac", "shootdowns", "walks", "deferred",
		},
		Notes: []string{
			"paper: free walks, eager shootdown (the baseline tables' machine);",
			"pt-home: single page-table home per space, walks charged;",
			"pt-replicate: Mitosis-style per-node replicas — local walks, write-through installs;",
			"pt-batched: numaPTE-style deferred shootdown over pt-home tables;",
			"walk/ptrep/batch-frac: share of total time in the variant's new causes",
		},
	}
	type idx struct{ n, wl, v int }
	var pts []idx
	var specs []runSpec
	for _, n := range nodeCounts {
		for wl := range ptWorkloads {
			for v := range ptVariants {
				pts = append(pts, idx{n, wl, v})
				specs = append(specs, ptSpec(n, wl, v))
			}
		}
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	// runAll found every Gauss run's answer equal to the first one's
	// (specs[0]); the sequential reference checks that one.
	if err := checkReference(specs[0], res[0], apps.GaussReferenceChecksum(apps.DefaultGaussConfig(ptGaussN, 1))); err != nil {
		return nil, err
	}
	for i, r := range res {
		p := pts[i]
		t.Rows = append(t.Rows, []string{
			itoa(p.n), ptWorkloads[p.wl].String(), ptVariants[p.v].name, r.elapsed.String(),
			ptFrac(r.acct, sim.CausePmapWalk),
			ptFrac(r.acct, sim.CausePTReplicate),
			ptFrac(r.acct, sim.CauseBatchFlush),
			fmt.Sprintf("%d", r.shootdowns),
			fmt.Sprintf("%d", r.pt.Walks),
			fmt.Sprintf("%d", r.pt.Deferred),
		})
	}
	return t, nil
}
