package exp

import (
	"fmt"
	"slices"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
)

// Extension experiments for the paper's own what-ifs:
//
//   - page-size-sweep: §9 ("we will systematically experiment with ...
//     page size") and the §4.1 granularity analysis;
//   - blockxfer-concurrency: §7 ("redesigning the memory system to
//     allow more concurrency between processing and block transfers
//     would help").

func init() {
	register(Experiment{
		ID:    "page-size-sweep",
		Paper: "§9/§4.1 (performance vs page size)",
		Run:   runPageSizeSweep,
	})
	register(Experiment{
		ID:    "blockxfer-concurrency",
		Paper: "§7 (block transfers that do not starve the memory modules)",
		Run:   runBlockXferConcurrency,
	})
}

func runPageSizeSweep(o Options) (*Table, error) {
	n := 320
	procs := 8
	if o.Quick {
		n = 160
	}
	t := &Table{
		ID:     "page-size-sweep",
		Title:  fmt.Sprintf("Gaussian elimination %dx%d on %d procs vs page size", n, n, procs),
		Header: []string{"page size (words)", "elapsed", "vs 1024-word pages"},
		Notes: []string{
			"§4.1: larger pages amortize the fixed fault overhead while the",
			"granularity of sharing (here: one row) exceeds the page;",
			"past that, extra words are copied for nothing",
		},
	}
	// Both sweeps include the reference size, 1024 words.
	sizes := []int{128, 256, 512, 1024, 2048}
	if o.Quick {
		sizes = []int{256, 1024, 2048}
	}
	specs := make([]runSpec, len(sizes))
	for i, pw := range sizes {
		kcfg := kernel.DefaultConfig()
		kcfg.Machine.PageWords = pw
		specs[i] = runSpec{prog: gaussPlatinum, app: apps.DefaultGaussConfig(n, procs), kcfg: kcfg, fresh: true}
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	base := res[slices.Index(sizes, 1024)].elapsed
	for i, pw := range sizes {
		t.Rows = append(t.Rows, []string{
			itoa(pw), res[i].elapsed.String(),
			f2(float64(res[i].elapsed) / float64(base)),
		})
	}
	return t, nil
}

func runBlockXferConcurrency(o Options) (*Table, error) {
	n, _ := gaussSize(o)
	t := &Table{
		ID:     "blockxfer-concurrency",
		Title:  fmt.Sprintf("Gaussian elimination %dx%d, 16 procs, vs block-transfer module occupancy", n, n),
		Header: []string{"occupancy", "T(16)", "speedup vs full starvation"},
		Notes: []string{
			"§7: the Butterfly's block transfer consumes 75% of both nodes'",
			"memory bandwidth; a memory system allowing concurrency between",
			"processing and transfers reduces replication's collateral cost",
		},
	}
	occs := []int{1000, 750, 500, 250}
	specs := make([]runSpec, len(occs))
	for i, occ := range occs {
		specs[i] = gaussSpec(o, gaussPlatinum, 16)
		specs[i].kcfg.Machine.BlockXferOccupancy = occ
		specs[i].fresh = true
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	base := res[0].elapsed // occupancy 100% is the reference
	for i, occ := range occs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", occ/10), res[i].elapsed.String(),
			f2(float64(base) / float64(res[i].elapsed)),
		})
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "app-suite",
		Paper: "§1/§9 (the growing application library: matmul, SOR)",
		Run:   runAppSuite,
	})
}

// runAppSuite reports speedup curves for the two library applications
// beyond the paper's three, chosen for their distinct sharing patterns:
// matmul (pure read sharing) and SOR (boundary sharing).
func runAppSuite(o Options) (*Table, error) {
	n := 128
	grid := 128
	if o.Quick {
		n, grid = 96, 64
	}
	t := &Table{
		ID:     "app-suite",
		Title:  "extended application library speedups",
		Header: []string{"procs", "matmul", "SOR"},
		Notes: []string{
			"matmul: read-shared inputs replicate once, banded output — the",
			"pattern coherent memory serves best; SOR: band boundaries are",
			"re-replicated each sweep (surface-to-volume coherency traffic)",
		},
	}
	procs := []int{1, 2, 4, 8, 16}
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 256
	// One run per (processor count, application) pair.
	var specs []runSpec
	for _, p := range procs {
		specs = append(specs,
			runSpec{prog: matMul, app: apps.DefaultMatMulConfig(n, p), kcfg: kcfg, fresh: true},
			runSpec{prog: sorGrid, app: apps.DefaultSORConfig(grid, 256, p), kcfg: kcfg, fresh: true})
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	// runAll found every run's answer equal to the 1-processor run's of
	// the same application; one sequential reference each checks those.
	if err := checkReference(specs[0], res[0], apps.MatMulReferenceChecksum(apps.DefaultMatMulConfig(n, 1))); err != nil {
		return nil, err
	}
	if err := checkReference(specs[1], res[1], apps.SORReferenceChecksum(apps.DefaultSORConfig(grid, 256, 1))); err != nil {
		return nil, err
	}
	baseM, baseS := res[0].elapsed, res[1].elapsed
	for i, p := range procs {
		em, es := res[2*i].elapsed, res[2*i+1].elapsed
		t.Rows = append(t.Rows, []string{
			itoa(p),
			fmt.Sprintf("%v (%sx)", em, f2(float64(baseM)/float64(em))),
			fmt.Sprintf("%v (%sx)", es, f2(float64(baseS)/float64(es))),
		})
	}
	return t, nil
}

func init() {
	register(Experiment{
		ID:    "colocate-options",
		Paper: "§4.1 (the three ways to co-locate operation and data)",
		Run:   runColocateOptions,
	})
}

// runColocateOptions measures the per-operation cost of §4.1's three
// co-location strategies across data-structure sizes.
func runColocateOptions(o Options) (*Table, error) {
	ops := 40
	if o.Quick {
		ops = 16
	}
	t := &Table{
		ID:     "colocate-options",
		Title:  "per-operation cost of the §4.1 co-location options (rho=1, 2 procs alternating)",
		Header: []string{"X size (pages)", "remote access", "migrate data", "migrate thread"},
		Notes: []string{
			"remote wins for small sparse structures; data migration for",
			"page-scale ones; moving the computation (the Emerald-style",
			"option) wins once X spans many pages — one thread move costs",
			"one kernel-stack page regardless of X's size",
		},
	}
	sizes := []int{1, 4, 16}
	if o.Quick {
		sizes = []int{1, 8}
	}
	// The three options: a policy that never moves data, with and
	// without moving the thread, and one that always moves it.
	options := []struct {
		pol     core.Policy
		migrate bool
	}{
		{core.NeverCache{}, false},
		{core.AlwaysCache{}, false},
		{core.NeverCache{}, true},
	}
	var specs []runSpec
	for _, pages := range sizes {
		for _, opt := range options {
			kcfg := kernel.DefaultConfig()
			kcfg.Core.Policy = opt.pol
			kcfg.Core.DefrostPeriod = 0
			specs = append(specs, runSpec{prog: colocate, kcfg: kcfg, fresh: true,
				app: apps.ColocateConfig{Pages: pages, Rho: 1.0, Ops: ops, MigrateThread: opt.migrate}})
		}
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	for i, pages := range sizes {
		row := []string{itoa(pages)}
		for j := range options {
			row = append(row, res[i*len(options)+j].out.(apps.ColocateResult).MeanOp.String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
