package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/kernel"
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
	// One run per (processor count, machine) pair; the p=1 runs double
	// as the speedup baselines.
	var specs []runSpec
	for _, p := range procs {
		cfg := apps.DefaultMergeSortConfig(p)
		cfg.Words = words
		specs = append(specs,
			runSpec{prog: mergeSortPlatinum, app: cfg, kcfg: kernel.DefaultConfig()},
			runSpec{prog: mergeSortUMA, app: cfg})
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	baseP, baseU := res[0].elapsed, res[1].elapsed
	for i, p := range procs {
		ep, eu := res[2*i].elapsed, res[2*i+1].elapsed
		remote, fault := fracs(res[2*i].acct)
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
	procs := []int{1, 2, 4, 6, 8}
	if o.Quick {
		procs = []int{1, 2, 4, 8}
	}
	specs := make([]runSpec, len(procs))
	for i, p := range procs {
		cfg := apps.DefaultBackpropConfig(p)
		cfg.Epochs = epochs
		specs[i] = runSpec{prog: backprop, app: cfg, kcfg: kernel.DefaultConfig()}
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	base := res[0].elapsed // procs always starts at 1
	for i, p := range procs {
		sp := float64(base) / float64(res[i].elapsed)
		remote, fault := fracs(res[i].acct)
		t.Rows = append(t.Rows, []string{
			itoa(p), res[i].elapsed.String(), f2(sp), f2(sp / float64(p)),
			remote, fault,
		})
	}
	return t, nil
}
