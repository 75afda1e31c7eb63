package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/baseline"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
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

func gaussKernelConfig(pageWords int) kernel.Config {
	cfg := kernel.DefaultConfig()
	cfg.Machine.PageWords = pageWords
	return cfg
}

// runGaussAt runs one Gaussian elimination and returns the elapsed
// time plus the machine-wide cost breakdown, after verifying the
// attribution conservation invariant.
func runGaussAt(o Options, procs int, variant string, srcSel core.SourceSelection) (sim.Time, sim.Account, error) {
	n, pw := gaussSize(o)
	cfg := apps.DefaultGaussConfig(n, procs)
	var kcfg kernel.Config
	switch variant {
	case "platinum", "smp":
		kcfg = gaussKernelConfig(pw)
		kcfg.Core.SourceSelection = srcSel
	case "uniform":
		kcfg = baseline.UniformSystemConfig()
		kcfg.Machine.PageWords = pw
	default:
		return 0, sim.Account{}, fmt.Errorf("exp: unknown gauss variant %q", variant)
	}
	// The pool key encodes every kernel-config parameter this function
	// varies; procs and problem size select work on the machine, not the
	// machine's shape.
	key := "gauss:" + variant + ":pw=" + itoa(pw) + ":src=" + itoa(int(srcSel))
	pl, err := apps.AcquirePlatform(key, kcfg)
	if err != nil {
		return 0, sim.Account{}, err
	}
	var r apps.GaussResult
	switch variant {
	case "platinum":
		r, err = apps.RunGaussPlatinum(pl, cfg)
	case "uniform":
		r, err = apps.RunGaussUniform(pl, cfg)
	case "smp":
		r, err = apps.RunGaussSMP(pl, cfg)
	}
	if err != nil {
		return 0, sim.Account{}, err // failed runs are not pooled
	}
	accts := pl.Accounts()
	if err := metrics.CheckConservation(accts); err != nil {
		return 0, sim.Account{}, err
	}
	apps.ReleasePlatform(key, pl)
	return r.Elapsed, total(accts), nil
}

// total sums per-node accounts into the machine-wide breakdown.
func total(accts []sim.Account) sim.Account {
	var a sim.Account
	for i := range accts {
		a.Add(&accts[i])
	}
	return a
}

// fracs formats an account's remote-access and fault-overhead (fault +
// shootdown) fractions of total time — the two cost columns every
// speedup table carries.
func fracs(a sim.Account) (remote, fault string) {
	b := metrics.FromAccount(a)
	return f3(b.RemoteFraction()), f3(b.FaultFraction())
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
	elapsed := make([]sim.Time, len(procs))
	accts := make([]sim.Account, len(procs))
	err := forEach(o, len(procs), func(i int) error {
		el, a, err := runGaussAt(o, procs[i], "platinum", core.SourceFirstCopy)
		elapsed[i], accts[i] = el, a
		return err
	})
	if err != nil {
		return nil, err
	}
	base := elapsed[0] // procSweep always starts at 1 processor
	for i, p := range procs {
		remote, fault := fracs(accts[i])
		t.Rows = append(t.Rows, []string{
			itoa(p), elapsed[i].String(), f2(float64(base) / float64(elapsed[i])),
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
	variants := []struct{ id, label string }{
		{"platinum", "PLATINUM coherent memory"},
		{"uniform", "Uniform System (static scatter)"},
		{"smp", "SMP message passing"},
	}
	procs := []int{1, 16}
	// One job per (variant, processor count) pair.
	elapsed := make([]sim.Time, len(variants)*len(procs))
	err := forEach(o, len(elapsed), func(i int) error {
		v, p := variants[i/len(procs)], procs[i%len(procs)]
		el, _, err := runGaussAt(o, p, v.id, core.SourceFirstCopy)
		if err != nil {
			return fmt.Errorf("%s p=%d: %w", v.id, p, err)
		}
		elapsed[i] = el
		return nil
	})
	if err != nil {
		return nil, err
	}
	platinum16 := elapsed[1]
	for i, v := range variants {
		t1, t16 := elapsed[i*len(procs)], elapsed[i*len(procs)+1]
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
	sels := []core.SourceSelection{core.SourceFirstCopy, core.SourceLeastLoaded}
	elapsed := make([]sim.Time, len(sels))
	err := forEach(o, len(sels), func(i int) error {
		el, _, err := runGaussAt(o, 16, "platinum", sels[i])
		elapsed[i] = el
		return err
	})
	if err != nil {
		return nil, err
	}
	first, least := elapsed[0], elapsed[1]
	t.Rows = append(t.Rows, []string{"first copy (default)", first.String(), "1.00"})
	t.Rows = append(t.Rows, []string{"least loaded", least.String(), f2(float64(first) / float64(least))})
	return t, nil
}
