package exp

import (
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/kernel"
)

// scaling probes §9's claim that the kernel's decentralized design
// scales to machines with many more processors. Following the paper's
// own position (§4.1, citing Gustafson: parallel machines exist to run
// ever-larger problems), the problem grows with the machine — a fixed
// number of matrix rows per processor — and the metric is scaled
// efficiency: T(16 procs, 16-proc problem) / T(N procs, N-proc problem)
// per unit of work. Perfect scaling keeps per-processor work time flat.

func init() {
	register(Experiment{
		ID:    "scaling",
		Paper: "§9 (scalability of the decentralized kernel)",
		Run:   runScaling,
	})
}

func runScaling(o Options) (*Table, error) {
	rowsPerProc := 30
	if o.Quick {
		rowsPerProc = 15
	}
	nodesList := []int{16, 32, 64}
	if o.Quick {
		nodesList = []int{16, 32}
	}
	t := &Table{
		ID:     "scaling",
		Title:  fmt.Sprintf("scaled Gaussian elimination, %d rows per processor", rowsPerProc),
		Header: []string{"nodes", "matrix", "elapsed", "work (row-words)", "ns/row-word", "efficiency vs 16"},
		Notes: []string{
			"problem size grows with the machine (Gustafson scaling, §4.1);",
			"flat ns-per-row-word means the kernel's decentralized protocol",
			"is not the scaling limit",
		},
	}
	specs := make([]runSpec, len(nodesList))
	for i, nodes := range nodesList {
		n := rowsPerProc * nodes
		kcfg := kernel.DefaultConfig()
		kcfg.Machine.Nodes = nodes
		kcfg.Machine.PageWords = 1024
		// Pivot replicas accumulate one per processor per pivot row;
		// size the frame pools for the larger runs.
		kcfg.Core.FramesPerModule = 2*n + 64
		specs[i] = runSpec{prog: gaussPlatinum, app: apps.DefaultGaussConfig(n, nodes), kcfg: kcfg, fresh: true}
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	var base float64
	for i, nodes := range nodesList {
		n := rowsPerProc * nodes
		// Work per processor: sum over rounds of (owned rows x width)
		// ~ n^3 / (3 * procs) row-words.
		work := float64(n) * float64(n) * float64(n) / (3 * float64(nodes))
		perWord := float64(res[i].elapsed) / work
		if i == 0 {
			base = perWord
		}
		t.Rows = append(t.Rows, []string{
			itoa(nodes), fmt.Sprintf("%dx%d", n, n), res[i].elapsed.String(),
			fmt.Sprintf("%.0f", work), fmt.Sprintf("%.0f", perWord),
			f2(base / perWord),
		})
	}
	return t, nil
}
