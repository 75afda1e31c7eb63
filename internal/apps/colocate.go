package apps

import (
	"fmt"

	"platinum/internal/kernel"
	"platinum/internal/sim"
)

// The §4.1 enumeration, as a measurable microbenchmark. A data
// structure X (k pages) is operated on alternately by threads on two
// processors; each operation makes ρ·s·k references. The paper lists
// three ways to co-locate operation and data:
//
//  1. don't — execute in place with remote references (a platform
//     whose policy never moves data, core.NeverCache);
//  2. move the data to the processor (core.AlwaysCache);
//  3. move the computation to the data — the Emerald-style option the
//     paper notes but does not pursue (MigrateThread under NeverCache,
//     modeled as a round trip: migrate to the data's home, operate
//     locally, migrate back).
//
// Comparing per-operation costs across X sizes shows each option's
// regime: remote wins for tiny sparse operations, data migration for
// page-scale operations, and computation migration once X spans many
// pages (one thread move costs one stack page regardless of k).

// ColocateConfig parameterizes a run.
type ColocateConfig struct {
	Pages         int     // size of X in pages
	Rho           float64 // reference density per operation
	Ops           int     // total operations (alternating between two procs)
	MigrateThread bool    // each operation moves its thread to X's home and back
}

// ColocateResult reports a run.
type ColocateResult struct {
	MeanOp sim.Time // the mean time of one operation
}

// RunColocate measures the mean per-operation time on pl, whose
// policy decides whether X's pages move.
func RunColocate(pl *PlatinumPlatform, cfg ColocateConfig) (ColocateResult, error) {
	if cfg.Pages < 1 || cfg.Ops < 2 {
		return ColocateResult{}, fmt.Errorf("apps: bad colocate config %+v", cfg)
	}
	pw := pl.K.PageWords()
	xVA, err := pl.Alloc("X", cfg.Pages*pw)
	if err != nil {
		return ColocateResult{}, err
	}
	const home = 0
	for pg := 0; pg < cfg.Pages; pg++ {
		if err := pl.PlaceAt(xVA+int64(pg*pw), home); err != nil {
			return ColocateResult{}, err
		}
	}
	turn, err := pl.Alloc("turn", 1)
	if err != nil {
		return ColocateResult{}, err
	}

	refs := int(cfg.Rho * float64(pw))
	if refs < 1 {
		refs = 1
	}
	if refs > pw {
		refs = pw
	}
	var opTime sim.Time
	worker := func(me int, myProc int) func(*kernel.Thread) {
		return func(t *kernel.Thread) {
			buf := make([]uint32, refs)
			for op := me; op < cfg.Ops; op += 2 {
				t.WaitAtLeast(turn, uint32(op))
				start := t.Now()
				if cfg.MigrateThread && t.Proc() != home {
					t.Migrate(home)
				}
				// One write establishes ownership, then the operation's
				// references, page by page.
				for pg := 0; pg < cfg.Pages; pg++ {
					base := xVA + int64(pg*pw)
					t.Write(base, uint32(op))
					if refs > 1 {
						t.ReadRange(base+1, buf[:refs-1])
					}
				}
				if cfg.MigrateThread && t.Proc() != myProc {
					t.Migrate(myProc)
				}
				opTime += t.Now() - start
				t.Write(turn, uint32(op+1))
			}
		}
	}
	pl.K.Spawn("a", 0, pl.Sp, worker(0, 0))
	pl.K.Spawn("b", 1, pl.Sp, worker(1, 1))
	if err := pl.Run(); err != nil {
		return ColocateResult{}, err
	}
	return ColocateResult{MeanOp: opTime / sim.Time(cfg.Ops)}, nil
}
