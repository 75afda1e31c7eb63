package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/baseline"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

// fig1 regenerates the Gaussian elimination speedup curve (Fig. 1);
// gauss-compare regenerates the §5.1 16-processor comparison of the
// three programming systems (PLATINUM 13.5 / Uniform System 10.6 /
// SMP message passing 15.3); repl-source is the §5.1/§7 ablation on
// pivot replication serialization.

func init() {
	register(Experiment{
		ID:    "fig1",
		Paper: "Fig. 1 (Gaussian elimination speedup vs processors)",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "gauss-compare",
		Paper: "§5.1 (PLATINUM vs Uniform System vs SMP at 16 procs)",
		Run:   runGaussCompare,
	})
	register(Experiment{
		ID:    "repl-source",
		Paper: "§5.1/§7 (pivot replication serialization ablation)",
		Run:   runReplSource,
	})
}

// gaussSize picks the problem size: the paper's 800x800 (with 800-word
// rows padded into the machine's 1024-word pages), or a scaled version
// preserving the row/page density for quick runs.
func gaussSize(o Options) (n, pageWords int) {
	if o.Quick {
		return 240, 256
	}
	return 800, 1024
}

// gaussSpec is one Gaussian elimination of gaussSize's shape by prog
// on procs processors of the paper's machine, pooled.
func gaussSpec(o Options, prog program, procs int) runSpec {
	n, pw := gaussSize(o)
	kcfg := kernel.DefaultConfig()
	if prog == gaussUniform {
		kcfg = baseline.UniformSystemConfig()
	}
	kcfg.Machine.PageWords = pw
	return runSpec{prog: prog, app: apps.DefaultGaussConfig(n, procs), kcfg: kcfg}
}

// fracs formats an account's remote-access and fault-overhead (fault +
// shootdown) fractions of total time — the two cost columns every
// speedup table carries.
func fracs(a sim.Account) (remote, fault string) {
	return f3(a.RemoteFraction()), f3(a.FaultFraction())
}

func runFig1(o Options) (*Table, error) {
	n, pw := gaussSize(o)
	t := &Table{
		ID:     "fig1",
		Title:  "Gaussian elimination speedup, " + itoa(n) + "x" + itoa(n) + " (integer), " + itoa(pw) + "-word pages",
		Header: []string{"procs", "elapsed", "speedup", "remote-frac", "fault-frac"},
		Notes: []string{
			"paper (800x800, 16 procs): speedup 13.5",
			"remote-frac: share of total time in remote word accesses;",
			"fault-frac: share in fault handling + shootdown",
		},
	}
	procs := procSweep(o)
	specs := make([]runSpec, len(procs))
	for i, p := range procs {
		specs[i] = gaussSpec(o, gaussPlatinum, p)
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	base := res[0].elapsed // procSweep always starts at 1 processor
	for i, p := range procs {
		remote, fault := fracs(res[i].acct)
		t.Rows = append(t.Rows, []string{
			itoa(p), res[i].elapsed.String(), f2(float64(base) / float64(res[i].elapsed)),
			remote, fault,
		})
	}
	return t, nil
}

func runGaussCompare(o Options) (*Table, error) {
	n, _ := gaussSize(o)
	t := &Table{
		ID:     "gauss-compare",
		Title:  fmt.Sprintf("Gaussian elimination %dx%d: three programming systems", n, n),
		Header: []string{"system", "T(1)", "T(16)", "speedup", "T(16) vs PLATINUM"},
		Notes: []string{
			"paper: PLATINUM 13.5, Uniform System 10.6, SMP message passing 15.3",
			"each system's speedup is relative to its own 1-processor time;",
			"the last column compares absolute 16-processor times",
		},
	}
	variants := []struct {
		prog  program
		label string
	}{
		{gaussPlatinum, "PLATINUM coherent memory"},
		{gaussUniform, "Uniform System (static scatter)"},
		{gaussSMP, "SMP message passing"},
	}
	// One run per (variant, processor count) pair.
	var specs []runSpec
	for _, v := range variants {
		specs = append(specs, gaussSpec(o, v.prog, 1), gaussSpec(o, v.prog, 16))
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	platinum16 := res[1].elapsed
	for i, v := range variants {
		t1, t16 := res[2*i].elapsed, res[2*i+1].elapsed
		t.Rows = append(t.Rows, []string{
			v.label, t1.String(), t16.String(), f2(float64(t1) / float64(t16)),
			f2(float64(t16) / float64(platinum16)),
		})
	}
	return t, nil
}

func runReplSource(o Options) (*Table, error) {
	t := &Table{
		ID:     "repl-source",
		Title:  "pivot-row replication: first-copy source vs least-loaded source",
		Header: []string{"source selection", "T(16)", "speedup vs first-copy"},
		Notes: []string{
			"§5.1 observes high fault-handler contention on pivot pages due to",
			"serialized replication; sourcing from the least-loaded copy is the",
			"§7-style what-if",
		},
	}
	specs := []runSpec{gaussSpec(o, gaussPlatinum, 16), gaussSpec(o, gaussPlatinum, 16)}
	specs[1].kcfg.Core.SourceSelection = core.SourceLeastLoaded
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	first, least := res[0].elapsed, res[1].elapsed
	t.Rows = append(t.Rows, []string{"first copy (default)", first.String(), "1.00"})
	t.Rows = append(t.Rows, []string{"least loaded", least.String(), f2(float64(first) / float64(least))})
	return t, nil
}
