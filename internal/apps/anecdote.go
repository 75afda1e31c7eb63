package apps

import (
	"fmt"

	"platinum/internal/kernel"
	"platinum/internal/sim"
)

// The §4.2 anecdote, as a reproducible experiment. The paper's first
// Gaussian elimination program kept the matrix-size variable — read in
// every iteration of every thread's inner loop — on the same page as a
// spin lock used once as a start barrier. Spinning on the lock froze
// the page, so every inner-loop read of the matrix size became a remote
// reference, and the program slowed dramatically with five or more
// processors. The fixes the paper discusses: separate the variables
// onto distinct pages (programmer), or thaw the page later (the defrost
// daemon, which "salvages reasonable performance").
//
// AnecdoteConfig selects the layout and the platform's kernel.Config
// the defrost period; comparing elapsed times across the three
// variants reproduces the story.

// AnecdoteConfig parameterizes one run.
type AnecdoteConfig struct {
	Threads  int  // worker threads (paper: problem visible at >= 5)
	Iters    int  // inner-loop iterations per thread
	Colocate bool // matrix-size variable shares the lock's page
}

// anecdoteWork is the non-memory work per inner-loop iteration.
const anecdoteWork = 1 * sim.Microsecond

// DefaultAnecdoteConfig reproduces the paper's setup in miniature.
func DefaultAnecdoteConfig(threads int) AnecdoteConfig {
	return AnecdoteConfig{
		Threads:  threads,
		Iters:    20000,
		Colocate: true,
	}
}

// AnecdoteResult reports a run.
type AnecdoteResult struct {
	Elapsed    sim.Time
	SizeFrozen bool // was the matrix-size page frozen at the end?
}

// RunAnecdote executes the workload on pl and reports elapsed time plus
// the final freeze state of the matrix-size page.
func RunAnecdote(pl *PlatinumPlatform, cfg AnecdoteConfig) (AnecdoteResult, error) {
	if cfg.Threads < 2 {
		return AnecdoteResult{}, fmt.Errorf("apps: anecdote needs >= 2 threads")
	}
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return AnecdoteResult{}, err
	}
	obj := "size"
	var sizeVA, lockVA int64
	var err error
	if cfg.Colocate {
		obj = "size+lock"
		sizeVA, err = pl.Alloc(obj, 2)
		lockVA = sizeVA + 1
	} else if sizeVA, err = pl.Alloc(obj, 1); err == nil {
		lockVA, err = pl.Alloc("lock", 1)
	}
	if err != nil {
		return AnecdoteResult{}, err
	}

	for i := 0; i < cfg.Threads; i++ {
		i := i
		pl.K.Spawn(fmt.Sprintf("anec-%d", i), i, pl.Sp, func(t *kernel.Thread) {
			if i == 0 {
				// Startup phase: write the matrix size.
				t.Write(sizeVA, uint32(cfg.Iters))
			}
			// Start barrier on the spin lock: every thread increments
			// and spins until all have arrived. The spinning writes are
			// the fine-grain interference that freezes the lock's page.
			t.AtomicAdd(lockVA, 1)
			t.WaitAtLeast(lockVA, uint32(cfg.Threads))

			// Elimination phase: the inner loop reads the matrix size
			// every iteration (its termination test).
			want := uint32(cfg.Iters)
			for it := 0; it < cfg.Iters; it++ {
				if v := t.Read(sizeVA); v != want {
					panic(fmt.Sprintf("apps: matrix size corrupted: %d", v))
				}
				t.Compute(anecdoteWork)
			}
		})
	}
	if err := pl.Run(); err != nil {
		return AnecdoteResult{}, err
	}
	o, ok := pl.K.Manager().LookupObject(obj)
	if !ok {
		return AnecdoteResult{}, fmt.Errorf("apps: object %q missing", obj)
	}
	return AnecdoteResult{Elapsed: pl.Elapsed(), SizeFrozen: o.Cpage(0).Frozen()}, nil
}
