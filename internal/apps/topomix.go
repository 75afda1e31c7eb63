package apps

import (
	"fmt"

	"platinum/internal/sim"
)

// TopoMix is the bounded microworkload behind the generalized-topology
// sweeps (topo-nodes / topo-skew / topo-tiers in internal/exp). Unlike
// the paper's applications — Gaussian elimination is O(n³) and
// infeasible at 1024 nodes — TopoMix gives every processor a constant
// amount of work regardless of machine size, so elapsed time measures
// how the machine and the coherency protocol scale, not how the
// problem grows.
//
// Each processor runs the same mix per round:
//
//   - writes and reads within its own private page (perfect locality —
//     the page migrates to, then stays on, its owner's module);
//   - reads from a small set of shared read-mostly pages (replication
//     traffic: every module eventually holds a copy);
//   - every topoHotWriteEvery-th round, one atomic increment of a
//     write-shared hot counter page (migration/invalidation traffic —
//     the freeze/defrost pressure point).
//
// The computation is verified: each processor checks its private page
// contents, and the last processor to finish checks that the hot
// counters sum to exactly the number of increments issued, so a
// coherency bug on any topology surfaces as a wrong answer.
type TopoMixConfig struct {
	Procs     int // processors used (one thread each)
	PageWords int // must match the machine's page size
}

// The mix: constant per-proc work sized so a 1024-node run stays
// affordable.
const (
	topoRounds        = 24 // rounds per processor
	topoLocalRefs     = 64 // private-page references per round
	topoSharedReads   = 16 // read-mostly page reads per round
	topoHotWriteEvery = 4  // one hot-counter increment every k-th round
	topoReadPages     = 8  // size of the shared read-mostly set
	topoHotPages      = 4  // size of the write-shared counter set
)

// DefaultTopoMixConfig returns the sweep workload on procs processors
// with pages of pageWords words.
func DefaultTopoMixConfig(procs, pageWords int) TopoMixConfig {
	return TopoMixConfig{Procs: procs, PageWords: pageWords}
}

// TopoMixResult carries the workload's outcome.
type TopoMixResult struct {
	Elapsed sim.Time
}

// RunTopoMix executes the workload on pl and verifies its results.
func RunTopoMix(pl Platform, cfg TopoMixConfig) (TopoMixResult, error) {
	if err := checkProcs(pl, cfg.Procs); err != nil {
		return TopoMixResult{}, err
	}
	if cfg.PageWords < 1 {
		return TopoMixResult{}, fmt.Errorf("apps: bad topomix page size %d", cfg.PageWords)
	}
	pw := cfg.PageWords
	privBase, err := pl.Alloc("topomix-priv", cfg.Procs*pw)
	if err != nil {
		return TopoMixResult{}, err
	}
	readBase, err := pl.Alloc("topomix-read", topoReadPages*pw)
	if err != nil {
		return TopoMixResult{}, err
	}
	hotBase, err := pl.Alloc("topomix-hot", topoHotPages*pw)
	if err != nil {
		return TopoMixResult{}, err
	}
	doneBase, err := pl.Alloc("topomix-done", 1)
	if err != nil {
		return TopoMixResult{}, err
	}

	const hotWrites = (topoRounds + topoHotWriteEvery - 1) / topoHotWriteEvery
	var runErr error
	fail := func(e error) {
		if runErr == nil {
			runErr = e
		}
	}
	for p := 0; p < cfg.Procs; p++ {
		proc := p
		pl.Spawn(fmt.Sprintf("topomix-%d", proc), proc, func(t Env) {
			priv := privBase + int64(proc*pw)
			for r := 0; r < topoRounds; r++ {
				// Private-page work: one write stamping the round, then
				// reads over the page (constant locality per round).
				w := (r * 7) % pw
				t.Write(priv+int64(w), uint32(proc*topoRounds+r+1))
				for i := 0; i < topoLocalRefs-1; i++ {
					t.Read(priv + int64((w+i)%pw))
				}
				// Shared read-mostly pages: spread so neighbours start on
				// different pages but everyone covers the whole set.
				for i := 0; i < topoSharedReads; i++ {
					page := (proc + r + i) % topoReadPages
					t.Read(readBase + int64(page*pw+(r%pw)))
				}
				// Hot counters: the write-sharing the policy must survive.
				if r%topoHotWriteEvery == 0 {
					page := (proc + r/topoHotWriteEvery) % topoHotPages
					t.AtomicAdd(hotBase+int64(page*pw), 1)
				}
				t.Compute(2 * sim.Microsecond)
			}
			// Verify the private page: the last value written per word
			// survives all the coherency traffic.
			last := make(map[int]uint32)
			for r := 0; r < topoRounds; r++ {
				last[(r*7)%pw] = uint32(proc*topoRounds + r + 1)
			}
			for w, want := range last {
				if got := t.Read(priv + int64(w)); got != want {
					fail(fmt.Errorf("apps: topomix proc %d: priv[%d] = %d, want %d", proc, w, got, want))
					return
				}
			}
			// The last processor to finish audits the hot counters.
			if t.AtomicAdd(doneBase, 1) == uint32(cfg.Procs) {
				var sum uint32
				for page := 0; page < topoHotPages; page++ {
					sum += t.Read(hotBase + int64(page*pw))
				}
				if want := uint32(cfg.Procs * hotWrites); sum != want {
					fail(fmt.Errorf("apps: topomix hot counters sum %d, want %d", sum, want))
				}
			}
		})
	}
	if err := pl.Run(); err != nil {
		return TopoMixResult{}, err
	}
	if runErr != nil {
		return TopoMixResult{}, runErr
	}
	return TopoMixResult{Elapsed: pl.Elapsed()}, nil
}
