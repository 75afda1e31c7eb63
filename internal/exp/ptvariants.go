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

// ptWorkloads are the measured programs: the Fig. 1 Gaussian
// elimination and the Fig. 5 merge sort, scaled to the quick sizes so
// the 256-node runs stay affordable. Both verify their output; gaussRef
// is the Gauss reference checksum, which depends only on the matrix
// size and seed, so the table computes it once.
var ptWorkloads = []struct {
	name string
	run  func(pl *apps.PlatinumPlatform, procs int, gaussRef uint32) (sim.Time, error)
}{
	{"gauss", func(pl *apps.PlatinumPlatform, procs int, gaussRef uint32) (sim.Time, error) {
		r, err := apps.RunGaussPlatinum(pl, apps.DefaultGaussConfig(ptGaussN, procs))
		if err != nil {
			return 0, err
		}
		if r.Checksum != gaussRef {
			return 0, fmt.Errorf("exp: gauss checksum mismatch at %d procs", procs)
		}
		return r.Elapsed, nil
	}},
	{"mergesort", func(pl *apps.PlatinumPlatform, procs int, _ uint32) (sim.Time, error) {
		cfg := apps.DefaultMergeSortConfig(procs)
		cfg.Words = 1 << 15
		r, err := apps.RunMergeSort(pl, cfg)
		if err != nil {
			return 0, err
		}
		if !r.Sorted {
			return 0, fmt.Errorf("exp: merge sort output unsorted at %d procs", procs)
		}
		return r.Elapsed, nil
	}},
}

// ptTopology returns the machine for one sweep point: the paper-sized
// uniform machine at 16 nodes, clustered distance-skewed machines
// beyond that (16-node clusters, inter-cluster distance 2000‰ — the
// topo-nodes sweep's shape, so results line up across experiments).
func ptTopology(nodes int) *mach.Topology {
	if nodes <= 16 {
		return &mach.Topology{Name: fmt.Sprintf("uniform-%d", nodes), Base: sweepBase(nodes)}
	}
	return clusterTopology(nodes, 16, 2000)
}

// ptResult is one sweep data point.
type ptResult struct {
	elapsed sim.Time
	acct    sim.Account
	stats   core.PTStats
	shoots  int64
}

// runPTVariantAt runs one workload under one page-table variant on one
// topology, verifying the per-cause conservation invariant — which now
// covers the pmap_walk, pt_replicate and batch_flush causes the
// variants introduce.
func runPTVariantAt(nodes, wl, v int, gaussRef uint32) (ptResult, error) {
	topo := ptTopology(nodes)
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = topo
	kcfg.Core.PageTables = ptVariants[v].cfg
	key := fmt.Sprintf("ptvar:%s:%s:%s", topo.Name, ptWorkloads[wl].name, ptVariants[v].name)
	pl, err := apps.AcquirePlatform(key, kcfg)
	if err != nil {
		return ptResult{}, err
	}
	elapsed, err := ptWorkloads[wl].run(pl, nodes, gaussRef)
	if err != nil {
		return ptResult{}, err // failed runs are not pooled
	}
	accts := pl.Accounts()
	if err := metrics.CheckConservation(accts); err != nil {
		return ptResult{}, fmt.Errorf("%s under %s: %w", key, ptVariants[v].name, err)
	}
	res := ptResult{
		elapsed: elapsed,
		acct:    total(accts),
		stats:   pl.K.System().PTStats(),
		shoots:  pl.K.System().Shootdowns(),
	}
	apps.ReleasePlatform(key, pl)
	return res, nil
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
	for _, n := range nodeCounts {
		for wl := range ptWorkloads {
			for v := range ptVariants {
				pts = append(pts, idx{n, wl, v})
			}
		}
	}
	gaussRef := apps.GaussReferenceChecksum(apps.DefaultGaussConfig(ptGaussN, 1))
	results := make([]ptResult, len(pts))
	err := forEach(o, len(results), func(i int) error {
		r, err := runPTVariantAt(pts[i].n, pts[i].wl, pts[i].v, gaussRef)
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		p := pts[i]
		t.Rows = append(t.Rows, []string{
			itoa(p.n), ptWorkloads[p.wl].name, ptVariants[p.v].name, r.elapsed.String(),
			ptFrac(r.acct, sim.CausePmapWalk),
			ptFrac(r.acct, sim.CausePTReplicate),
			ptFrac(r.acct, sim.CauseBatchFlush),
			fmt.Sprintf("%d", r.shoots),
			fmt.Sprintf("%d", r.stats.Walks),
			fmt.Sprintf("%d", r.stats.Deferred),
		})
	}
	return t, nil
}
