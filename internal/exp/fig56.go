package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
	"platinum/internal/sim"
)

// fig5 regenerates the merge-sort comparison (PLATINUM on the NUMA
// machine vs the same program on a Sequent-Symmetry-class UMA machine);
// fig6 regenerates the backpropagation simulator's speedup curve.

func init() {
	register(Experiment{
		ID:    "fig5",
		Paper: "Fig. 5 (merge sort speedup, PLATINUM vs Sequent Symmetry)",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Paper: "Fig. 6 (recurrent backpropagation speedup)",
		Run:   runFig6,
	})
}

func mergeSortWords(o Options) int {
	if o.Quick {
		return 1 << 15
	}
	return 1 << 18 // 256K words = 1 MB, far beyond the Symmetry's 8 KB cache
}

// kernelDefaultPool is the pool key shared by every experiment running
// on an unmodified kernel.DefaultConfig() machine.
const kernelDefaultPool = "exp:kernel-default"

func runMergeSortOn(platform string, words, procs int) (sim.Time, sim.Account, error) {
	cfg := apps.DefaultMergeSortConfig(procs)
	cfg.Words = words
	var pl apps.Platform
	var ppl *apps.PlatinumPlatform // non-nil iff reusable via the pool
	var err error
	switch platform {
	case "platinum":
		ppl, err = apps.AcquirePlatform(kernelDefaultPool, kernel.DefaultConfig())
		pl = ppl
	case "uma":
		pl = apps.NewUMAPlatform()
	default:
		return 0, sim.Account{}, fmt.Errorf("exp: unknown platform %q", platform)
	}
	if err != nil {
		return 0, sim.Account{}, err
	}
	r, err := apps.RunMergeSort(pl, cfg)
	if err != nil {
		return 0, sim.Account{}, err
	}
	if !r.Sorted {
		return 0, sim.Account{}, fmt.Errorf("exp: merge sort output unsorted on %s p=%d", platform, procs)
	}
	accts := pl.Accounts()
	if err := metrics.CheckConservation(accts); err != nil {
		return 0, sim.Account{}, err
	}
	if ppl != nil {
		apps.ReleasePlatform(kernelDefaultPool, ppl)
	}
	return r.Elapsed, total(accts), nil
}

func runFig5(o Options) (*Table, error) {
	words := mergeSortWords(o)
	t := &Table{
		ID:    "fig5",
		Title: fmt.Sprintf("merge sort speedup, %d words", words),
		Header: []string{"procs", "PLATINUM", "speedup", "Symmetry (UMA)", "speedup",
			"remote-frac", "fault-frac"},
		Notes: []string{
			"paper: the Butterfly under PLATINUM shows better speedup than the",
			"Sequent Symmetry for the same problem size (8 KB write-through caches",
			"hold nothing across merge phases; every store is a bus write)",
			"remote-frac/fault-frac are for the PLATINUM run (the UMA machine",
			"has neither remote accesses nor faults)",
		},
	}
	// Powers of two keep the merge tree balanced, matching the study.
	procs := []int{1, 2, 4, 8, 16}
	// One job per (processor count, platform) pair; the p=1 runs double
	// as the speedup baselines.
	elapsed := make([]sim.Time, 2*len(procs))
	accts := make([]sim.Account, 2*len(procs))
	err := forEach(o, len(elapsed), func(i int) error {
		p := procs[i/2]
		platform := "platinum"
		if i%2 == 1 {
			platform = "uma"
		}
		el, a, err := runMergeSortOn(platform, words, p)
		elapsed[i], accts[i] = el, a
		return err
	})
	if err != nil {
		return nil, err
	}
	baseP, baseU := elapsed[0], elapsed[1]
	for i, p := range procs {
		ep, eu := elapsed[2*i], elapsed[2*i+1]
		remote, fault := fracs(accts[2*i])
		t.Rows = append(t.Rows, []string{
			itoa(p),
			ep.String(), f2(float64(baseP) / float64(ep)),
			eu.String(), f2(float64(baseU) / float64(eu)),
			remote, fault,
		})
	}
	return t, nil
}

func runFig6(o Options) (*Table, error) {
	epochs := 12
	if o.Quick {
		epochs = 6
	}
	t := &Table{
		ID:    "fig6",
		Title: "recurrent backpropagation simulator speedup (40 units, 16 patterns)",
		Header: []string{"procs", "elapsed", "speedup", "per-proc contribution",
			"remote-frac", "fault-frac"},
		Notes: []string{
			"paper: linear over the measured range, but extensive remote access",
			"limits each incremental processor to about 1/2 of an all-local one;",
			"the fine-grain shared pages end up frozen",
		},
	}
	run := func(p int) (sim.Time, sim.Account, error) {
		pl, err := apps.AcquirePlatform(kernelDefaultPool, kernel.DefaultConfig())
		if err != nil {
			return 0, sim.Account{}, err
		}
		cfg := apps.DefaultBackpropConfig(p)
		cfg.Epochs = epochs
		r, err := apps.RunBackprop(pl, cfg)
		if err != nil {
			return 0, sim.Account{}, err
		}
		if !(r.FinalSSE < r.InitialSSE) {
			return 0, sim.Account{}, fmt.Errorf("exp: backprop did not learn at p=%d (SSE %f -> %f)",
				p, r.InitialSSE, r.FinalSSE)
		}
		accts := pl.Accounts()
		if err := metrics.CheckConservation(accts); err != nil {
			return 0, sim.Account{}, err
		}
		apps.ReleasePlatform(kernelDefaultPool, pl)
		return r.Elapsed, total(accts), nil
	}
	procs := []int{1, 2, 4, 6, 8}
	if o.Quick {
		procs = []int{1, 2, 4, 8}
	}
	elapsed := make([]sim.Time, len(procs))
	accts := make([]sim.Account, len(procs))
	err := forEach(o, len(procs), func(i int) error {
		el, a, err := run(procs[i])
		elapsed[i], accts[i] = el, a
		return err
	})
	if err != nil {
		return nil, err
	}
	base := elapsed[0] // procs always starts at 1
	for i, p := range procs {
		sp := float64(base) / float64(elapsed[i])
		remote, fault := fracs(accts[i])
		t.Rows = append(t.Rows, []string{
			itoa(p), elapsed[i].String(), f2(sp), f2(sp / float64(p)),
			remote, fault,
		})
	}
	return t, nil
}
