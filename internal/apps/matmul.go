package apps

import (
	"fmt"

	"platinum/internal/sim"
)

// Dense integer matrix multiply C = A×B: the friendliest access pattern
// for coherent memory (§1's "library of applications ... with different
// memory access patterns"). A and B are read-shared — every processor's
// first touch replicates the pages it needs, after which the whole
// computation runs on local memory — and C is partitioned into
// contiguous row bands (§6: banding, not round-robin, keeps each
// thread's output on its own pages). Expected behaviour: near-linear
// speedup, no frozen data pages, replications bounded by (pages of A
// and B) × processors.

// MatMulConfig parameterizes a run.
type MatMulConfig struct {
	N       int // matrices are N×N
	Threads int // worker threads
}

const (
	matmulSeed    = 3                   // input seed
	matmulMacCost = 3 * sim.Microsecond // processor time per multiply-accumulate
)

// DefaultMatMulConfig returns a paper-era configuration.
func DefaultMatMulConfig(n, threads int) MatMulConfig {
	return MatMulConfig{N: n, Threads: threads}
}

// MatMulResult reports a run.
type MatMulResult struct {
	Elapsed  sim.Time
	Checksum uint32
}

func matmulInput(cfg MatMulConfig) (a, b []uint32) {
	n := cfg.N
	a = make([]uint32, n*n)
	b = make([]uint32, n*n)
	seed := uint64(matmulSeed) // a variable: the constant product would overflow
	rng := seed*6364136223846793005 + 1442695040888963407
	for i := range a {
		rng = rng*6364136223846793005 + 1442695040888963407
		a[i] = uint32(rng >> 40)
		rng = rng*6364136223846793005 + 1442695040888963407
		b[i] = uint32(rng >> 40)
	}
	return a, b
}

// MatMulReferenceChecksum computes the expected product checksum
// sequentially in plain Go.
func MatMulReferenceChecksum(cfg MatMulConfig) uint32 {
	n := cfg.N
	a, b := matmulInput(cfg)
	h := uint32(2166136261)
	row := make([]uint32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum uint32
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			row[j] = sum
		}
		for _, v := range row {
			h = (h ^ v) * 16777619
		}
	}
	return h
}

// RunMatMul multiplies on the platform, partitioning C's rows over the
// threads, and returns the digest of C for verification.
func RunMatMul(pl Platform, cfg MatMulConfig) (MatMulResult, error) {
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return MatMulResult{}, err
	}
	n, p := cfg.N, cfg.Threads
	aVA, err := pl.Alloc("matmul-a", n*n)
	if err != nil {
		return MatMulResult{}, err
	}
	bVA, err := pl.Alloc("matmul-b", n*n)
	if err != nil {
		return MatMulResult{}, err
	}
	cVA, err := pl.Alloc("matmul-c", n*n)
	if err != nil {
		return MatMulResult{}, err
	}
	ev, err := pl.Alloc("matmul-ev", 2)
	if err != nil {
		return MatMulResult{}, err
	}

	aIn, bIn := matmulInput(cfg)
	var out []uint32
	for i := 0; i < p; i++ {
		i := i
		pl.Spawn(fmt.Sprintf("matmul-%d", i), i, func(t Env) {
			if i == 0 {
				// Thread 0 initializes the inputs, then releases everyone.
				t.WriteRange(aVA, aIn)
				t.WriteRange(bVA, bIn)
				t.Write(ev, 1)
			} else {
				t.WaitAtLeast(ev, 1)
			}
			arow := make([]uint32, n)
			bcol := make([]uint32, n*n) // B read row-wise below
			t.ReadRange(bVA, bcol)      // replicate all of B locally once
			crow := make([]uint32, n)
			lo, hi := i*n/p, (i+1)*n/p
			for r := lo; r < hi; r++ {
				t.ReadRange(aVA+int64(r*n), arow)
				for j := 0; j < n; j++ {
					var sum uint32
					for k := 0; k < n; k++ {
						sum += arow[k] * bcol[k*n+j]
					}
					crow[j] = sum
				}
				// One row of C: n cells × n multiply-accumulates.
				t.Compute(matmulMacCost * sim.Time(n*n))
				t.WriteRange(cVA+int64(r*n), crow)
			}
			t.AtomicAdd(ev+1, 1)
			if i == 0 {
				t.WaitAtLeast(ev+1, uint32(p))
				final := make([]uint32, n*n)
				t.ReadRange(cVA, final)
				out = final
			}
		})
	}
	if err := pl.Run(); err != nil {
		return MatMulResult{}, err
	}
	h := uint32(2166136261)
	for _, v := range out {
		h = (h ^ v) * 16777619
	}
	return MatMulResult{Elapsed: pl.Elapsed(), Checksum: h}, nil
}
