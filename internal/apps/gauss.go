package apps

import (
	"fmt"
	"strconv"

	"platinum/internal/baseline"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

// Gaussian elimination without pivoting on a dense matrix (§5.1 and
// Fig. 1). Like the paper's program it "simulates" elimination with
// integer operations — the memory reference pattern of real elimination
// with arithmetic that wraps instead of overflowing — so all three
// implementations must produce bit-identical matrices, which the tests
// exploit for cross-validation.
//
// Decomposition (the coarse-grain variant LeBlanc found best): one
// thread per processor, rows statically assigned round-robin. In round
// k the owner of row k has just finished reducing it; everyone reads
// row k (replicated by coherent memory) and eliminates it from their
// own remaining rows.
//
// Three variants:
//
//	RunGaussPlatinum — shared memory on coherent memory (rows padded to
//	  page boundaries; an event-count array signals pivot readiness).
//	RunGaussUniform  — identical program on a kernel with replication
//	  and migration disabled and the matrix scattered round-robin
//	  across modules (the Uniform System baseline).
//	RunGaussSMP      — message passing: the pivot row is broadcast
//	  through ports; no shared matrix at all.

// GaussConfig parameterizes a run.
type GaussConfig struct {
	N       int      // matrix dimension
	Threads int      // worker threads (one per processor)
	Seed    int64    // matrix content seed
	OpCost  sim.Time // processor time per multiply-subtract on one word
}

// DefaultGaussConfig returns the paper's shape scaled by n.
func DefaultGaussConfig(n, threads int) GaussConfig {
	return GaussConfig{N: n, Threads: threads, Seed: 7, OpCost: 3 * sim.Microsecond}
}

// GaussResult reports a finished run.
type GaussResult struct {
	Elapsed  sim.Time
	Checksum uint32   // FNV-ish digest of the reduced matrix
	Matrix   []uint32 // the reduced matrix, for verification
}

// gaussInput generates the deterministic input matrix.
func gaussInput(cfg GaussConfig) []uint32 {
	m := make([]uint32, cfg.N*cfg.N)
	rng := uint64(cfg.Seed)*6364136223846793005 + 1442695040888963407
	for i := range m {
		rng = rng*6364136223846793005 + 1442695040888963407
		m[i] = uint32(rng >> 33)
	}
	return m
}

// gaussMult returns the integer "multiplier" used to eliminate row j
// with pivot row k: a deterministic odd value, standing in for the
// quotient a[j][k]/a[k][k] of real elimination.
func gaussMult(j, k int) uint32 {
	return uint32(2*j+3)*uint32(k+1) | 1
}

// gaussReference computes the expected reduced matrix sequentially (in
// plain Go, no simulation) for verification.
func gaussReference(cfg GaussConfig) []uint32 {
	n := cfg.N
	m := gaussInput(cfg)
	for k := 0; k < n-1; k++ {
		pivot := m[k*n:]
		for j := k + 1; j < n; j++ {
			mult := gaussMult(j, k)
			row := m[j*n:]
			for c := k; c < n; c++ {
				row[c] -= mult * pivot[c]
			}
		}
	}
	return m
}

// gaussChecksum digests a matrix.
func gaussChecksum(m []uint32) uint32 {
	h := uint32(2166136261)
	for _, v := range m {
		h = (h ^ v) * 16777619
	}
	return h
}

// GaussReferenceChecksum returns the checksum of the sequentially
// reduced matrix, for cross-validating the simulated runs.
func GaussReferenceChecksum(cfg GaussConfig) uint32 {
	return gaussChecksum(gaussReference(cfg))
}

// rowOwner returns the thread owning row j (round-robin assignment, so
// every thread keeps owning rows near the active frontier as
// elimination shrinks it).
func rowOwner(j, threads int) int { return j % threads }

// RunGaussPlatinum runs the shared-memory program on a PLATINUM kernel.
// The rows are padded to page boundaries (one row per page for n up to
// the page size), following §6's advice to keep data with different
// access patterns on distinct pages.
func RunGaussPlatinum(pl *PlatinumPlatform, cfg GaussConfig) (GaussResult, error) {
	return runGaussShared(pl, cfg, false)
}

// RunGaussUniform runs the identical program on a Uniform-System-style
// kernel: boot with baseline.UniformSystemConfig (NeverCache) and the
// matrix scattered round-robin over all modules.
func RunGaussUniform(pl *PlatinumPlatform, cfg GaussConfig) (GaussResult, error) {
	return runGaussShared(pl, cfg, true)
}

func runGaussShared(pl *PlatinumPlatform, cfg GaussConfig, scatter bool) (GaussResult, error) {
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return GaussResult{}, err
	}
	n, p := cfg.N, cfg.Threads
	k := pl.K
	pw := k.PageWords()
	rowPages := (n + pw - 1) / pw
	rowStride := int64(rowPages * pw)

	matVA, err := pl.Sp.AllocPages("gauss-matrix", n*rowPages, core.Read|core.Write)
	if err != nil {
		return GaussResult{}, err
	}
	evVA, err := pl.Sp.AllocWords("gauss-events", n, core.Read|core.Write)
	if err != nil {
		return GaussResult{}, err
	}
	doneVA, err := pl.Sp.AllocWords("gauss-done", 1, core.Read|core.Write)
	if err != nil {
		return GaussResult{}, err
	}
	if scatter {
		// Uniform System tasks have no row affinity, so placement must
		// not correlate with ownership: stride the pages over modules.
		for pg := 0; pg < n*rowPages; pg++ {
			mod := (pg*5 + 3) % k.Nodes()
			if err := pl.Sp.PlaceAt(matVA+int64(pg*pw), mod); err != nil {
				return GaussResult{}, fmt.Errorf("apps: scattering gauss matrix: %w", err)
			}
		}
	}

	input := gaussInput(cfg)
	rowVA := func(j int) int64 { return matVA + int64(j)*rowStride }

	var out []uint32
	for i := 0; i < p; i++ {
		i := i
		pl.K.Spawn("gauss-"+strconv.Itoa(i), i, pl.Sp, func(t *kernel.Thread) {
			// Distribute owned rows (first touch places them locally
			// unless the matrix was statically scattered).
			for j := i; j < n; j += p {
				t.WriteRange(rowVA(j), input[j*n:(j+1)*n])
			}
			// Row 0 is final from the start; its owner announces it.
			if rowOwner(0, p) == i {
				t.Write(evVA, 1)
			}
			pivot := make([]uint32, n)
			eliminate := func(j, kk int) {
				mult := gaussMult(j, kk)
				width := n - kk
				// The inner loop reads the pivot row from memory for
				// every row it eliminates: local replica reads under
				// PLATINUM, remote reads hammering the pivot's single
				// module under static placement (the §7 contention
				// contrast).
				t.ReadRange(rowVA(kk)+int64(kk), pivot[kk:])
				t.UpdateSlice(rowVA(j)+int64(kk), width, func(base int, w []uint32) {
					// Equal-length slices let the compiler drop the
					// bounds check in the innermost loop of the suite.
					pv := pivot[kk+base : kk+base+len(w)]
					w = w[:len(pv)]
					for c, v := range pv {
						w[c] -= mult * v
					}
				})
				t.Compute(cfg.OpCost * sim.Time(width))
			}
			for kk := 0; kk < n-1; kk++ {
				t.WaitAtLeast(evVA+int64(kk), 1)
				t.ReadRange(rowVA(kk)+int64(kk), pivot[kk:])
				// Eliminate the next pivot row first so its owner can
				// publish it while everyone grinds through the rest of
				// the round — this overlap is what lets rounds pipeline.
				if next := kk + 1; next < n && rowOwner(next, p) == i {
					eliminate(next, kk)
					t.Write(evVA+int64(next), 1)
				}
				for j := i; j < n; j += p {
					if j <= kk+1 {
						continue // done above, or already final
					}
					eliminate(j, kk)
				}
			}
			t.AtomicAdd(doneVA, 1)
			if i == 0 {
				// Wait for every worker before collecting the result.
				t.WaitAtLeast(doneVA, uint32(p))
				final := make([]uint32, n*n)
				for j := 0; j < n; j++ {
					t.ReadRange(rowVA(j), final[j*n:(j+1)*n])
				}
				out = final
			}
		})
	}
	if err := pl.Run(); err != nil {
		return GaussResult{}, err
	}
	return GaussResult{Elapsed: pl.Elapsed(), Checksum: gaussChecksum(out), Matrix: out}, nil
}

// RunGaussSMP runs the message-passing variant: each thread keeps its
// rows in private memory and the per-round pivot row is broadcast
// through ports (LeBlanc's SMP style — more code, no shared data).
func RunGaussSMP(pl *PlatinumPlatform, cfg GaussConfig) (GaussResult, error) {
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return GaussResult{}, err
	}
	n, p := cfg.N, cfg.Threads
	mesh, err := baseline.NewMesh(pl.K, "gauss-smp", p)
	if err != nil {
		return GaussResult{}, err
	}
	resultPort, err := pl.K.NewPort("gauss-smp-result")
	if err != nil {
		return GaussResult{}, err
	}

	input := gaussInput(cfg)
	var out []uint32

	for i := 0; i < p; i++ {
		i := i
		pl.K.Spawn(fmt.Sprintf("gauss-smp-%d", i), i, pl.Sp, func(t *kernel.Thread) {
			// Private rows, kept in Go memory: message passing programs
			// on the Butterfly kept rows in local memory; we charge the
			// arithmetic and the message traffic.
			rows := make(map[int][]uint32)
			for j := i; j < n; j += p {
				rows[j] = append([]uint32(nil), input[j*n:(j+1)*n]...)
				// Charge the initial local fill.
				t.Compute(sim.Time(n) * 320 * sim.Nanosecond)
			}
			for kk := 0; kk < n-1; kk++ {
				owner := rowOwner(kk, p)
				var pivot []uint32
				if owner == i {
					pivot = rows[kk][kk:]
				}
				pivot = mesh.Bcast(t, i, owner, pivot)
				for j := i; j < n; j += p {
					if j <= kk {
						continue
					}
					mult := gaussMult(j, kk)
					row := rows[j]
					for c := kk; c < n; c++ {
						row[c] -= mult * pivot[c-kk]
					}
					width := n - kk
					// Arithmetic plus local row traffic.
					t.Compute((cfg.OpCost + 3*320*sim.Nanosecond) * sim.Time(width))
				}
			}
			// Ship rows to thread 0 for verification.
			if i != 0 {
				for j := i; j < n; j += p {
					msg := append([]uint32{uint32(j)}, rows[j]...)
					t.Send(resultPort, msg)
				}
			} else {
				final := make([]uint32, n*n)
				for j := 0; j < n; j += p {
					copy(final[j*n:(j+1)*n], rows[j])
				}
				for recv := 0; recv < n-(n+p-1)/p; recv++ {
					msg := t.Receive(resultPort)
					j := int(msg[0])
					copy(final[j*n:(j+1)*n], msg[1:])
				}
				out = final
			}
		})
	}
	if err := pl.Run(); err != nil {
		return GaussResult{}, err
	}
	return GaussResult{Elapsed: pl.Elapsed(), Checksum: gaussChecksum(out), Matrix: out}, nil
}
