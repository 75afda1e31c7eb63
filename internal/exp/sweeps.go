package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

// freeze-anecdote regenerates §4.2's frozen-page story; t1-sweep checks
// the paper's claim that performance is insensitive to t1 between 10 ms
// and ~100 ms; policy-ablation compares the PLATINUM policy against the
// related-work policies (§8) on the three applications.

func init() {
	register(Experiment{
		ID:    "freeze-anecdote",
		Paper: "§4.2 (spin lock co-located with read-mostly data)",
		Run:   runFreezeAnecdote,
	})
	register(Experiment{
		ID:    "t1-sweep",
		Paper: "§4.2 (sensitivity to the t1 replication window)",
		Run:   runT1Sweep,
	})
	register(Experiment{
		ID:    "policy-ablation",
		Paper: "§8 (PLATINUM policy vs related-work policies)",
		Run:   runPolicyAblation,
	})
}

func runFreezeAnecdote(o Options) (*Table, error) {
	threads := 6
	t := &Table{
		ID:     "freeze-anecdote",
		Title:  fmt.Sprintf("matrix-size variable co-located with a spin lock (%d threads)", threads),
		Header: []string{"layout", "defrost", "elapsed", "size page frozen at end"},
		Notes: []string{
			"paper: co-location froze the page holding the inner-loop variable,",
			"dramatically increasing execution time with 5+ processors; thawing",
			"(or separating the variables) salvages performance",
		},
	}
	cases := []struct {
		label    string
		colocate bool
		defrost  sim.Time
	}{
		{"co-located", true, 0},
		{"co-located", true, 10 * sim.Millisecond},
		{"separate pages", false, 0},
	}
	cfg := apps.DefaultAnecdoteConfig(threads)
	if o.Quick {
		cfg.Iters /= 4
	}
	specs := make([]runSpec, len(cases))
	for i, c := range cases {
		cfg.Colocate = c.colocate
		kcfg := kernel.DefaultConfig()
		kcfg.Core.DefrostPeriod = c.defrost
		specs[i] = runSpec{prog: anecdote, app: cfg, kcfg: kcfg, fresh: true}
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		defrost := "off"
		if c.defrost > 0 {
			defrost = c.defrost.String()
		}
		t.Rows = append(t.Rows, []string{
			c.label, defrost, res[i].elapsed.String(),
			fmt.Sprint(res[i].out.(apps.AnecdoteResult).SizeFrozen),
		})
	}
	return t, nil
}

func runT1Sweep(o Options) (*Table, error) {
	t := &Table{
		ID:     "t1-sweep",
		Title:  "sensitivity of application time to the replication window t1",
		Header: []string{"t1", "gauss T(8)", "backprop T(8)"},
		Notes: []string{
			"paper: performance insensitive to t1 from 10 ms up to about 100 ms",
		},
	}
	n, pw := 160, 256
	if !o.Quick {
		n = 320
	}
	epochs := 6
	t1s := []sim.Time{
		2 * sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond,
		30 * sim.Millisecond, 100 * sim.Millisecond, 300 * sim.Millisecond,
	}
	if o.Quick {
		t1s = []sim.Time{10 * sim.Millisecond, 100 * sim.Millisecond}
	}
	// Two runs per t1 value: gauss and backprop.
	bcfg := apps.DefaultBackpropConfig(8)
	bcfg.Epochs = epochs
	var specs []runSpec
	for _, t1 := range t1s {
		pol := core.NewPlatinumPolicy(t1, false)
		specs = append(specs,
			policySpec(gaussPlatinum, apps.DefaultGaussConfig(n, 8), pw, pol),
			policySpec(backprop, bcfg, 1024, pol))
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	for i, t1 := range t1s {
		t.Rows = append(t.Rows, []string{t1.String(), res[2*i].elapsed.String(), res[2*i+1].elapsed.String()})
	}
	return t, nil
}

func runPolicyAblation(o Options) (*Table, error) {
	t := &Table{
		ID:     "policy-ablation",
		Title:  "replication policies across the applications (elapsed, 8 procs)",
		Header: []string{"policy", "gauss", "merge sort", "backprop"},
		Notes: []string{
			"platinum: paper's freeze/defrost policy; always-cache: DSM-style;",
			"never-cache: static placement; migrate-once: ACE-style (Bolosky)",
		},
	}
	n, pw := 160, 256
	if !o.Quick {
		n = 320
	}
	sortWords := 1 << 14
	if !o.Quick {
		sortWords = 1 << 16
	}
	policies := []core.Policy{
		core.NewPlatinumPolicy(core.DefaultT1, false),
		core.AlwaysCache{},
		core.NeverCache{},
		core.MigrateOnce{Limit: 4},
	}
	mcfg := apps.DefaultMergeSortConfig(8)
	mcfg.Words = sortWords
	bcfg := apps.DefaultBackpropConfig(8)
	bcfg.Epochs = 6
	// One run per (policy, application) pair.
	var specs []runSpec
	for _, pol := range policies {
		specs = append(specs,
			policySpec(gaussPlatinum, apps.DefaultGaussConfig(n, 8), pw, pol),
			policySpec(mergeSortPlatinum, mcfg, 1024, pol),
			policySpec(backprop, bcfg, 1024, pol))
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	for i, pol := range policies {
		t.Rows = append(t.Rows, []string{
			pol.Name(), res[3*i].elapsed.String(), res[3*i+1].elapsed.String(), res[3*i+2].elapsed.String(),
		})
	}
	return t, nil
}

// policySpec is prog with config app under policy pol on the paper's
// machine with pageWords-word pages, booted fresh.
func policySpec(prog program, app any, pageWords int, pol core.Policy) runSpec {
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = pageWords
	kcfg.Core.Policy = pol
	return runSpec{prog: prog, app: app, kcfg: kcfg, fresh: true}
}
