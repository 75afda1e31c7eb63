package exp

import (
	"fmt"
	"math"

	"platinum/internal/apps"
	"platinum/internal/mach"
	"platinum/internal/model"
)

// table1 regenerates the paper's Table 1 from the analytic model;
// table1-empirical validates selected cells by actually running the
// round-robin sharing workload on the simulator and bisecting for the
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
	err := forEach(o, len(cases), func(i int) error {
		c := cases[i]
		v, err := apps.EmpiricalSMin(c.rho, c.procs, 8, 16384, 6*c.procs)
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
