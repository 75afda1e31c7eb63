package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/sim"
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
	sizes := []int{128, 256, 512, 1024, 2048}
	if o.Quick {
		sizes = []int{256, 1024, 2048}
	}
	// One job per distinct page size; 1024 is the reference and is part
	// of every sweep.
	uniq := make([]int, 0, len(sizes)+1)
	for _, pw := range append([]int{1024}, sizes...) {
		dup := false
		for _, u := range uniq {
			dup = dup || u == pw
		}
		if !dup {
			uniq = append(uniq, pw)
		}
	}
	elapsed := make(map[int]sim.Time, len(uniq))
	results := make([]sim.Time, len(uniq))
	err := forEach(o, len(uniq), func(i int) error {
		pw := uniq[i]
		kcfg := kernel.DefaultConfig()
		kcfg.Machine.PageWords = pw
		pl, err := apps.NewPlatinumPlatform(kcfg)
		if err != nil {
			return err
		}
		r, err := apps.RunGaussPlatinum(pl, apps.DefaultGaussConfig(n, procs))
		if err != nil {
			return fmt.Errorf("page size %d: %w", pw, err)
		}
		results[i] = r.Elapsed
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pw := range uniq {
		elapsed[pw] = results[i]
	}
	base := elapsed[1024]
	for _, pw := range sizes {
		t.Rows = append(t.Rows, []string{
			itoa(pw), elapsed[pw].String(),
			f2(float64(elapsed[pw]) / float64(base)),
		})
	}
	return t, nil
}

func runBlockXferConcurrency(o Options) (*Table, error) {
	n, pw := gaussSize(o)
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
	elapsed := make([]sim.Time, len(occs))
	err := forEach(o, len(occs), func(i int) error {
		kcfg := gaussKernelConfig(pw)
		kcfg.Machine.BlockXferOccupancy = occs[i]
		pl, err := apps.NewPlatinumPlatform(kcfg)
		if err != nil {
			return err
		}
		r, err := apps.RunGaussPlatinum(pl, apps.DefaultGaussConfig(n, 16))
		elapsed[i] = r.Elapsed
		return err
	})
	if err != nil {
		return nil, err
	}
	base := elapsed[0] // occupancy 100% is the reference
	for i, occ := range occs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d%%", occ/10), elapsed[i].String(),
			f2(float64(base) / float64(elapsed[i])),
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
	// Neither answer depends on the thread count, so one sequential
	// reference per application checks every run.
	wantM := apps.MatMulReferenceChecksum(apps.DefaultMatMulConfig(n, 1))
	wantS := apps.SORReferenceChecksum(apps.DefaultSORConfig(grid, 256, 1))
	// One job per (processor count, application) pair.
	elapsed := make([]sim.Time, 2*len(procs))
	err := forEach(o, len(elapsed), func(i int) error {
		p := procs[i/2]
		kcfg := kernel.DefaultConfig()
		kcfg.Machine.PageWords = 256
		pl, err := apps.NewPlatinumPlatform(kcfg)
		if err != nil {
			return err
		}
		if i%2 == 0 {
			mm, err := apps.RunMatMul(pl, apps.DefaultMatMulConfig(n, p))
			if err != nil {
				return err
			}
			if mm.Checksum != wantM {
				return fmt.Errorf("exp: matmul checksum mismatch at %d procs", p)
			}
			elapsed[i] = mm.Elapsed
			return nil
		}
		sr, err := apps.RunSOR(pl, apps.DefaultSORConfig(grid, 256, p))
		if err != nil {
			return err
		}
		if sr.Checksum != wantS {
			return fmt.Errorf("exp: SOR checksum mismatch at %d procs", p)
		}
		elapsed[i] = sr.Elapsed
		return nil
	})
	if err != nil {
		return nil, err
	}
	baseM, baseS := elapsed[0], elapsed[1]
	for i, p := range procs {
		em, es := elapsed[2*i], elapsed[2*i+1]
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
	strats := []apps.ColocateStrategy{apps.Remote, apps.MigrateData, apps.MigrateThread}
	elapsed := make([]sim.Time, len(sizes)*len(strats))
	err := forEach(o, len(elapsed), func(i int) error {
		d, err := apps.RunColocate(apps.ColocateConfig{
			Pages: sizes[i/len(strats)], Rho: 1.0, Ops: ops, Strategy: strats[i%len(strats)],
		})
		elapsed[i] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, pages := range sizes {
		row := []string{itoa(pages)}
		for j := range strats {
			row = append(row, elapsed[i*len(strats)+j].String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
