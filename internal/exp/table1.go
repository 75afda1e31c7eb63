package exp

import (
	"fmt"
	"math"

	"platinum/internal/core"
	"platinum/internal/mach"
	"platinum/internal/model"
	"platinum/internal/sim"
)

// table1 regenerates the paper's Table 1 from the analytic model;
// table1-empirical validates selected cells by actually running the
// round-robin sharing workload on a bareCore and bisecting for the
// break-even page size.

func init() {
	register(Experiment{
		ID:    "table1",
		Paper: "Table 1 (S_min from inequality 2)",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table1-empirical",
		Paper: "Table 1 cross-checked by simulation",
		Run:   runTable1Empirical,
	})
}

func smin(v float64) string {
	if math.IsInf(v, 1) {
		return "never"
	}
	return fmt.Sprintf("%.0f", v)
}

func runTable1(Options) (*Table, error) {
	params := model.PaperParams()
	t := &Table{
		ID:     "table1",
		Title:  "minimum page size (words) above which migration always pays",
		Header: []string{"rho", "g(p)=0.5", "g(p)=1", "g(p)=2"},
		Notes: []string{
			fmt.Sprintf("model constants: N=%.0f words, C=%.2f (paper: 107, 0.24)",
				params.Numerator(), params.Coefficient()),
			"paper row for rho=1.0: 61 / 141 / 412",
		},
	}
	for _, row := range params.Table1() {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", row.Rho),
			smin(row.SMin[0]), smin(row.SMin[1]), smin(row.SMin[2]),
		})
	}
	return t, nil
}

func runTable1Empirical(o Options) (*Table, error) {
	// Evaluate the model with the simulator's own constants so the
	// comparison is apples-to-apples, then bisect empirically.
	params := generationParams(mach.DefaultConfig(), 1)
	t := &Table{
		ID:     "table1-empirical",
		Title:  "empirical break-even page size vs model (simulator constants)",
		Header: []string{"rho", "procs", "g(p)", "model S_min", "empirical S_min"},
		Notes: []string{
			fmt.Sprintf("simulator constants: N=%.0f words, C=%.3f",
				params.Numerator(), params.Coefficient()),
		},
	}
	cases := []struct {
		rho   float64
		procs int
	}{
		{2.0, 2}, {1.0, 2}, {0.6, 2},
		{1.0, 4}, {0.5, 4},
		{1.0, 16}, {0.35, 16}, {0.20, 16},
	}
	if o.Quick {
		cases = cases[:4]
	}
	got := make([]float64, len(cases))
	err := forEach(o, len(cases), nil, func(i int) error {
		c := cases[i]
		v, err := empiricalSMin(c.rho, c.procs, 8, 16384, 6*c.procs)
		got[i] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		g := model.GRoundRobin(c.procs)
		want := params.SMin(c.rho, g)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", c.rho), itoa(c.procs), f2(g), smin(want), smin(got[i]),
		})
	}
	return t, nil
}

// Round-robin write-sharing microworkload: the empirical counterpart of
// the §4.1 analytic model (Table 1). p processors take strict turns
// operating on a data structure X that fills one page of s words; each
// operation makes r = ρ·s references (one write that establishes
// ownership, the rest reads). Comparing total time under the
// always-migrate policy against the never-migrate (remote access)
// policy locates the empirical break-even page size S_min for each
// (ρ, g(p)), which table1-empirical checks against inequality (2).
//
// The workload drives the coherent memory system directly with a
// sequential script, because the model assumes pure round-robin data
// references with no synchronization traffic.

// sharingConfig parameterizes one measurement.
type sharingConfig struct {
	PageWords int         // s: page size in words
	Rho       float64     // reference density (r = max(1, round(ρ·s)))
	Procs     int         // p: processors taking turns
	Ops       int         // total operations (turns)
	Policy    core.Policy // AlwaysCache (migrate) or NeverCache (remote)
}

// runSharing measures the total virtual time of the workload.
func runSharing(cfg sharingConfig) (sim.Time, error) {
	if cfg.PageWords < 1 || cfg.Procs < 2 || cfg.Ops < 1 {
		return 0, fmt.Errorf("exp: bad sharing config %+v", cfg)
	}
	refs := int(math.Round(cfg.Rho * float64(cfg.PageWords)))
	if refs < 1 {
		refs = 1
	}
	if refs > cfg.PageWords {
		refs = cfg.PageWords // density > 1 revisits words; cost below accounts extra
	}
	extra := int(math.Round(cfg.Rho*float64(cfg.PageWords))) - refs

	b, err := newBareCore(cfg.PageWords, cfg.Policy, 1)
	if err != nil {
		return 0, err
	}
	var elapsed sim.Time
	err = b.drive(func(th *sim.Thread) error {
		for op := 0; op < cfg.Ops; op++ {
			proc := op % cfg.Procs
			// One write establishes ownership (and triggers migration
			// under the caching policy) ...
			c, err := b.s.Touch(th, proc, b.cm, 0, true)
			if err != nil {
				return err
			}
			b.m.Access(th, proc, c.Module, 1, true)
			// ... the remaining references of the operation.
			if refs > 1 {
				b.m.Access(th, proc, c.Module, refs-1, false)
			}
			if extra > 0 {
				b.m.Access(th, proc, c.Module, extra, false)
			}
		}
		elapsed = th.Now()
		return nil
	})
	return elapsed, err
}

// empiricalSMin locates, by bisection over page size, the break-even
// point where migrating starts to beat remote access for density rho
// and p round-robin processors. It returns +Inf (as math.Inf) when
// migration loses even at maxWords.
func empiricalSMin(rho float64, procs, minWords, maxWords, ops int) (float64, error) {
	wins := func(s int) (bool, error) {
		mig, err := runSharing(sharingConfig{
			PageWords: s, Rho: rho, Procs: procs, Ops: ops, Policy: core.AlwaysCache{},
		})
		if err != nil {
			return false, err
		}
		rem, err := runSharing(sharingConfig{
			PageWords: s, Rho: rho, Procs: procs, Ops: ops, Policy: core.NeverCache{},
		})
		if err != nil {
			return false, err
		}
		return mig < rem, nil
	}
	hiWins, err := wins(maxWords)
	if err != nil {
		return 0, err
	}
	if !hiWins {
		return math.Inf(1), nil
	}
	if loWins, err := wins(minWords); err != nil {
		return 0, err
	} else if loWins {
		return float64(minWords), nil
	}
	lo, hi := minWords, maxWords // lo loses, hi wins
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		w, err := wins(mid)
		if err != nil {
			return 0, err
		}
		if w {
			hi = mid
		} else {
			lo = mid
		}
	}
	return float64(hi), nil
}
