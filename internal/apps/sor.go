package apps

import (
	"fmt"

	"platinum/internal/sim"
)

// Red-black successive over-relaxation (SOR) on a 2-D grid: the classic
// iterative PDE solver, and the access pattern between the extremes of
// gauss (coarse, read-shared pivot) and backprop (fine write sharing).
// The grid is partitioned into horizontal bands, one per thread; each
// sweep updates interior cells from their four neighbours, so each
// thread reads the boundary rows of its two neighbours every sweep.
//
// With bands padded to page boundaries (§6 allocation discipline), the
// boundary rows are read-shared/write-owned at page granularity: the
// protocol keeps re-replicating neighbour boundary pages each sweep and
// invalidating them on the owner's next update — steady, periodic
// coherency traffic proportional to the surface area, not the volume.
// Integer arithmetic (fixed-point average) keeps runs bit-reproducible.

// SORConfig parameterizes a run.
type SORConfig struct {
	Rows, Cols int // grid dimensions
	Threads    int // worker threads
}

const (
	sorSweeps = 6                   // red-black half-sweeps performed together
	sorOpCost = 2 * sim.Microsecond // processor time per cell update
)

// DefaultSORConfig returns a medium grid.
func DefaultSORConfig(rows, cols, threads int) SORConfig {
	return SORConfig{Rows: rows, Cols: cols, Threads: threads}
}

// SORResult reports a run.
type SORResult struct {
	Elapsed  sim.Time
	Checksum uint32
}

func sorInput(cfg SORConfig) []uint32 {
	g := make([]uint32, cfg.Rows*cfg.Cols)
	rng := uint64(99)
	rng = rng*6364136223846793005 + 1442695040888963407
	for i := range g {
		rng = rng*6364136223846793005 + 1442695040888963407
		g[i] = uint32(rng>>48) & 0xFFFF
	}
	return g
}

// sorUpdate is the (integer) relaxation operator.
func sorUpdate(c, n, s, w, e uint32) uint32 {
	return c/2 + (n+s+w+e)/8
}

// SORReferenceChecksum computes the expected grid digest sequentially.
func SORReferenceChecksum(cfg SORConfig) uint32 {
	rows, cols := cfg.Rows, cfg.Cols
	g := sorInput(cfg)
	next := make([]uint32, len(g))
	copy(next, g)
	for s := 0; s < sorSweeps; s++ {
		for r := 1; r < rows-1; r++ {
			for c := 1; c < cols-1; c++ {
				next[r*cols+c] = sorUpdate(
					g[r*cols+c], g[(r-1)*cols+c], g[(r+1)*cols+c],
					g[r*cols+c-1], g[r*cols+c+1])
			}
		}
		g, next = next, g
	}
	return digest(digestBasis, g)
}

// RunSOR runs the banded Jacobi-style sweeps on pl. The two grids are
// allocated with each thread's band in its own zone, so bands land on
// their owners' pages.
func RunSOR(pl Platform, cfg SORConfig) (SORResult, error) {
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return SORResult{}, err
	}
	rows, cols, p := cfg.Rows, cfg.Cols, cfg.Threads
	if rows < 2*p {
		return SORResult{}, fmt.Errorf("apps: %d rows over %d threads", rows, p)
	}
	gridA, err := pl.Alloc("sor-a", rows*cols)
	if err != nil {
		return SORResult{}, err
	}
	gridB, err := pl.Alloc("sor-b", rows*cols)
	if err != nil {
		return SORResult{}, err
	}
	ev, err := pl.Alloc("sor-ev", sorSweeps+2)
	if err != nil {
		return SORResult{}, err
	}

	band := func(i int) (lo, hi int) { return i * rows / p, (i + 1) * rows / p }
	input := sorInput(cfg)

	var out []uint32
	for i := 0; i < p; i++ {
		i := i
		pl.Spawn(fmt.Sprintf("sor-%d", i), i, func(t Env) {
			lo, hi := band(i)
			t.WriteRange(gridA+int64(lo*cols), input[lo*cols:hi*cols])
			t.WriteRange(gridB+int64(lo*cols), input[lo*cols:hi*cols])
			t.AtomicAdd(ev, 1)
			t.WaitAtLeast(ev, uint32(p))

			src, dst := gridA, gridB
			row := make([]uint32, cols)
			north := make([]uint32, cols)
			south := make([]uint32, cols)
			outRow := make([]uint32, cols)
			for s := 0; s < sorSweeps; s++ {
				for r := lo; r < hi; r++ {
					if r == 0 || r == rows-1 {
						// Boundary rows pass through unchanged.
						t.ReadRange(src+int64(r*cols), row)
						t.WriteRange(dst+int64(r*cols), row)
						continue
					}
					t.ReadRange(src+int64(r*cols), row)
					t.ReadRange(src+int64((r-1)*cols), north) // may be a neighbour's page
					t.ReadRange(src+int64((r+1)*cols), south)
					outRow[0], outRow[cols-1] = row[0], row[cols-1]
					for c := 1; c < cols-1; c++ {
						outRow[c] = sorUpdate(row[c], north[c], south[c], row[c-1], row[c+1])
					}
					t.Compute(sorOpCost * sim.Time(cols-2))
					t.WriteRange(dst+int64(r*cols), outRow)
				}
				// Sweep barrier: neighbours must finish writing before
				// the next sweep reads their boundary rows.
				t.AtomicAdd(ev+int64(1+s), 1)
				t.WaitAtLeast(ev+int64(1+s), uint32(p))
				src, dst = dst, src
			}
			if i == 0 {
				t.WaitAtLeast(ev+int64(sorSweeps), uint32(p))
				final := make([]uint32, rows*cols)
				t.ReadRange(src, final)
				out = final
			}
		})
	}
	if err := pl.Run(); err != nil {
		return SORResult{}, err
	}
	return SORResult{Elapsed: pl.Elapsed(), Checksum: digest(digestBasis, out)}, nil
}
