package exp

import (
	"errors"
	"fmt"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
	"platinum/internal/sim"
)

// Every app run of every experiment is a runSpec, and runAll is the one
// place that boots or acquires a platform for it, runs the program,
// checks conservation and the answer, and releases the platform.
// TestOnlyExecutorBootsPlatforms keeps it so.

// program is one application on one kind of machine.
type program uint8

const (
	gaussPlatinum     program = iota // Gaussian elimination on coherent memory (§5.1)
	gaussUniform                     // the same program on the Uniform System kernel
	gaussSMP                         // Gaussian elimination by message passing
	mergeSortPlatinum                // tree merge sort on PLATINUM (§5.2)
	mergeSortUMA                     // the same program on the Symmetry-class UMA machine
	backprop                         // the recurrent backpropagation simulator (§5.3)
	matMul                           // the app-suite's matrix multiply
	sorGrid                          // the app-suite's red-black SOR
	topoMix                          // the topology sweeps' microworkload
	anecdote                         // §4.2's spin lock beside read-mostly data
	colocate                         // §4.1's operations on data homed elsewhere
)

var programNames = [...]string{
	"gauss", "gauss-uniform", "gauss-smp", "mergesort", "mergesort-uma",
	"backprop", "matmul", "sor", "topomix", "anecdote", "colocate",
}

func (p program) String() string { return programNames[p] }

// runSpec names one simulation.
type runSpec struct {
	prog program
	// app is the program's configuration: apps.GaussConfig for the
	// three Gauss programs, apps.MergeSortConfig for both merge sorts,
	// and the apps config of the same name for the rest.
	app any
	// kcfg is the PLATINUM kernel the program runs on; mergeSortUMA
	// ignores it.
	kcfg kernel.Config
	// fresh boots a platform for this run alone and drops it afterwards,
	// instead of taking one from the pool and returning it (see
	// CONTRIBUTING.md, "Adding an experiment").
	fresh bool
}

func (s runSpec) String() string {
	if s.prog == mergeSortUMA {
		return fmt.Sprintf("%s %+v", s.prog, s.app)
	}
	machine := fmt.Sprintf("%d nodes, %d-word pages", s.kcfg.Machine.Nodes, s.kcfg.Machine.PageWords)
	if t := s.kcfg.Topology; t != nil {
		machine = "topology " + t.Name
	}
	if p := s.kcfg.Core.Policy; p != nil {
		machine += ", " + p.Name()
	}
	if d := s.kcfg.Core.DefrostPeriod; d != core.DefaultConfig().DefrostPeriod {
		machine += fmt.Sprintf(", defrost period %v", d)
	}
	return fmt.Sprintf("%s %+v on %s", s.prog, s.app, machine)
}

// cost estimates the run's host time in microseconds from the spec
// alone, for the pool to start the longest runs first. Each program's
// formula was fitted to the time of every run of five -quick suites and
// one full-size suite on a 2-vCPU Xeon; a wrong estimate costs host
// time, never a table byte.
func (s runSpec) cost() float64 {
	switch c := s.app.(type) {
	case apps.GaussConfig:
		// The elimination's n³/3 word operations, the n² row reads and
		// writes, each processor's n pivot-row reads per round, and the
		// pivot pages replicated to every processor.
		n, t := float64(c.N), float64(c.Threads)
		if s.prog == gaussSMP {
			return (0.22*n*n*n + 10*n*n*t) / 1e3
		}
		pw := s.kcfg.Machine.PageWords
		if s.kcfg.Topology != nil {
			pw = s.kcfg.Topology.Base.PageWords
		}
		return (0.14*n*n*n + 110*n*n + 13.5*n*n*t + 3.2*n*t*float64(pw)) / 1e3
	case apps.MergeSortConfig:
		w, t := float64(c.Words), float64(c.Threads)
		if s.prog == mergeSortUMA {
			return 0.19 * w * (1 + 0.04*t)
		}
		return 0.14*w + 60*t
	case apps.BackpropConfig:
		return float64(c.Epochs) * (220 + 290*float64(c.Threads))
	case apps.MatMulConfig:
		n := float64(c.N)
		return 0.00084*n*n*n + 160*float64(c.Threads)
	case apps.SORConfig:
		return 0.035*float64(c.Rows*c.Cols) + 42*float64(c.Threads)
	case apps.TopoMixConfig:
		p := float64(c.Procs)
		return 300 * p * (1 + p/1300)
	case apps.AnecdoteConfig:
		return 0.15 * float64(c.Threads*c.Iters)
	case apps.ColocateConfig:
		return 17 * float64(c.Ops)
	}
	return 0
}

// runResult is what one run measured. The counters are zero on the
// UMA machine.
type runResult struct {
	elapsed    sim.Time
	acct       sim.Account // the per-node accounts, summed
	checksum   uint32      // Gauss, matmul and SOR: the answer's digest
	shootdowns int64
	pt         core.PTStats
	freezes    int64 // summed over every Cpage
	thaws      int64
	// out is the program's own result where a table reads more of it
	// than the above: apps.AnecdoteResult and apps.ColocateResult.
	out any
}

// runAll runs each distinct spec of the suite once on its pool and
// returns the results in spec order. It fails, naming the spec, on the
// first run in spec order whose program fails or whose accounts do not
// conserve, and, naming both specs, on two runs of one input (see
// sameInput) that compute different answers.
func runAll(o Options, specs []runSpec) ([]runResult, error) {
	res := make([]runResult, len(specs))
	if err := o.pool.runShared(o.Progress, specs, res); err != nil {
		return nil, err
	}
	if err := agree(specs, res); err != nil {
		return nil, err
	}
	return res, nil
}

// run executes one spec on its platform.
func run(s runSpec) (runResult, error) {
	if s.prog == mergeSortUMA {
		return s.runOn(apps.NewUMAPlatform())
	}
	var pl *apps.PlatinumPlatform
	var err error
	if s.fresh {
		pl, err = apps.NewPlatinumPlatform(s.kcfg)
	} else {
		// The pool files a platform under its kernel config, whose
		// Topology and Policy pointers compare by identity, so a user
		// topology never gets a built-in machine's platform. The program
		// keeps a platform with the program whose buffers it grew,
		// which allocates less than letting two programs take turns.
		pl, err = apps.AcquirePlatform(s.prog.String(), s.kcfg)
	}
	if err != nil {
		return runResult{}, err
	}
	r, err := s.runOn(pl)
	if err != nil {
		return runResult{}, err // failed runs are not pooled
	}
	sys := pl.K.System()
	r.shootdowns, r.pt = sys.Shootdowns(), sys.PTStats()
	for _, cp := range sys.Cpages() {
		r.freezes += cp.Stats.Freezes
		r.thaws += cp.Stats.Thaws
	}
	if !s.fresh {
		apps.ReleasePlatform(s.prog.String(), pl)
	}
	return r, nil
}

// runOn runs the program on pl and checks the run: the program's answer
// where it has a check of its own, then conservation of the accounts.
func (s runSpec) runOn(pl apps.Platform) (runResult, error) {
	switch s.prog {
	case gaussPlatinum, gaussUniform, gaussSMP:
		runGauss := apps.RunGaussPlatinum
		if s.prog == gaussUniform {
			runGauss = apps.RunGaussUniform
		} else if s.prog == gaussSMP {
			runGauss = apps.RunGaussSMP
		}
		g, err := runGauss(pl.(*apps.PlatinumPlatform), s.app.(apps.GaussConfig))
		return conserved(pl, g.Elapsed, g.Checksum, err)
	case mergeSortPlatinum, mergeSortUMA:
		m, err := apps.RunMergeSort(pl, s.app.(apps.MergeSortConfig))
		if err == nil && !m.Sorted {
			err = errors.New("output is not the sorted input")
		}
		return conserved(pl, m.Elapsed, 0, err)
	case backprop:
		b, err := apps.RunBackprop(pl, s.app.(apps.BackpropConfig))
		// Backprop's updates race by design (§5.3), so its answer
		// depends on timing; it must still learn.
		if err == nil && !(b.FinalSSE < b.InitialSSE) {
			err = fmt.Errorf("did not learn (SSE %f -> %f)", b.InitialSSE, b.FinalSSE)
		}
		return conserved(pl, b.Elapsed, 0, err)
	case matMul:
		m, err := apps.RunMatMul(pl, s.app.(apps.MatMulConfig))
		return conserved(pl, m.Elapsed, m.Checksum, err)
	case sorGrid:
		g, err := apps.RunSOR(pl, s.app.(apps.SORConfig))
		return conserved(pl, g.Elapsed, g.Checksum, err)
	case anecdote:
		a, err := apps.RunAnecdote(pl.(*apps.PlatinumPlatform), s.app.(apps.AnecdoteConfig))
		r, err := conserved(pl, a.Elapsed, 0, err)
		r.out = a
		return r, err
	case colocate:
		c, err := apps.RunColocate(pl.(*apps.PlatinumPlatform), s.app.(apps.ColocateConfig))
		r, err := conserved(pl, pl.Elapsed(), 0, err)
		r.out = c
		return r, err
	default: // topoMix, which checks its own answer
		m, err := apps.RunTopoMix(pl, s.app.(apps.TopoMixConfig))
		return conserved(pl, m.Elapsed, 0, err)
	}
}

// conserved is the result of a program run on pl that returned err, once
// pl's accounts pass the conservation check.
func conserved(pl apps.Platform, elapsed sim.Time, checksum uint32, err error) (runResult, error) {
	if err != nil {
		return runResult{}, err
	}
	accts := pl.Accounts()
	if err := metrics.CheckConservation(accts); err != nil {
		return runResult{}, err
	}
	return runResult{elapsed: elapsed, acct: total(accts), checksum: checksum}, nil
}

// sameInput reports whether a and b run programs that must compute the
// same answer: any Gauss program on one matrix, matmul on one size or
// SOR on one grid, whatever the thread count, the op cost or the
// machine. Each case zeroes the parameters that must not change the
// answer and compares the rest, so a new config field counts as input.
func sameInput(a, b runSpec) bool {
	switch x := a.app.(type) {
	case apps.GaussConfig:
		y, ok := b.app.(apps.GaussConfig)
		x.Threads, x.OpCost, y.Threads, y.OpCost = 0, 0, 0, 0
		return ok && x == y
	case apps.MatMulConfig:
		y, ok := b.app.(apps.MatMulConfig)
		x.Threads, y.Threads = 0, 0
		return ok && x == y
	case apps.SORConfig:
		y, ok := b.app.(apps.SORConfig)
		x.Threads, y.Threads = 0, 0
		return ok && x == y
	}
	return false
}

// agree fails, naming both specs, when two runs on the same input
// returned different checksums.
func agree(specs []runSpec, res []runResult) error {
	for i := range specs {
		for j := 0; j < i; j++ {
			if !sameInput(specs[j], specs[i]) {
				continue
			}
			if res[j].checksum != res[i].checksum {
				return fmt.Errorf("exp: %v computed %#x, but %v computed %#x",
					specs[j], res[j].checksum, specs[i], res[i].checksum)
			}
			break // j agrees with every earlier run on this input
		}
	}
	return nil
}

// checkReference fails unless r, the result of s, carries the checksum
// want of a sequential reference run.
func checkReference(s runSpec, r runResult, want uint32) error {
	if r.checksum != want {
		return fmt.Errorf("exp: %v computed %#x, the reference %#x", s, r.checksum, want)
	}
	return nil
}

// total sums per-node accounts into the machine-wide breakdown.
func total(accts []sim.Account) sim.Account {
	var a sim.Account
	for i := range accts {
		a.Add(&accts[i])
	}
	return a
}
