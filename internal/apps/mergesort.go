package apps

import (
	"fmt"
	"slices"

	"platinum/internal/sim"
)

// Parallel tree merge sort (§5.2). The input is split into one chunk
// per thread; each thread sorts its chunk, then a binary tree of merge
// operations combines them, each merge performed by a single thread.
// This is the program Anderson studied on the Sequent Symmetry; the
// paper runs it on PLATINUM and compares the speedup curves (Fig. 5).
//
// Memory behaviour: during each merge, one half of the data was already
// produced by (and on PLATINUM is local to) the merging processor, the
// other half is streamed in linearly — replication prefetches a page at
// a time, and every word of a replicated page gets used. On the
// Symmetry, the 8 KB write-through cache holds nothing across merge
// phases and every store is a bus write.

// MergeSortConfig parameterizes a run.
type MergeSortConfig struct {
	Words   int // input size in 32-bit words
	Threads int // worker threads (one per processor)
}

const (
	msortSeed    = 1                    // input permutation seed
	msortCompare = 500 * sim.Nanosecond // processor time per compare-and-advance step
)

// DefaultMergeSortConfig returns a medium problem: 64K words.
func DefaultMergeSortConfig(threads int) MergeSortConfig {
	return MergeSortConfig{Words: 1 << 16, Threads: threads}
}

// MergeSortResult reports a finished run.
type MergeSortResult struct {
	Elapsed sim.Time
	Sorted  bool // the output is exactly the input, sorted
}

// RunMergeSort executes the merge sort on pl and verifies the output
// against the input sorted on the host.
func RunMergeSort(pl Platform, cfg MergeSortConfig) (MergeSortResult, error) {
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return MergeSortResult{}, err
	}
	if cfg.Words < cfg.Threads {
		return MergeSortResult{}, fmt.Errorf("apps: %d words over %d threads", cfg.Words, cfg.Threads)
	}

	n, p := cfg.Words, cfg.Threads
	bufA, err := pl.Alloc("msort-a", n)
	if err != nil {
		return MergeSortResult{}, err
	}
	bufB, err := pl.Alloc("msort-b", n)
	if err != nil {
		return MergeSortResult{}, err
	}
	// One event count per (level, owner); level 0 is "chunk sorted".
	levels := 1
	for 1<<levels < p {
		levels++
	}
	done, err := pl.Alloc("msort-events", (levels+1)*p)
	if err != nil {
		return MergeSortResult{}, err
	}

	// chunk boundaries: chunk i covers [bound[i], bound[i+1]).
	bound := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bound[i] = i * n / p
	}

	// Deterministic pseudo-random input, written by thread 0 at start.
	input := make([]uint32, n)
	seed := uint64(msortSeed) // a variable: the constant product would overflow
	rng := seed*2862933555777941757 + 3037000493
	for i := range input {
		rng = rng*2862933555777941757 + 3037000493
		input[i] = uint32(rng >> 32)
	}

	var out []uint32
	for i := 0; i < p; i++ {
		i := i
		pl.Spawn(fmt.Sprintf("msort-%d", i), i, func(t Env) {
			lo, hi := bound[i], bound[i+1]
			// Distribute the input: each thread writes its own chunk
			// (first touch places it locally on PLATINUM).
			t.WriteRange(bufA+int64(lo), input[lo:hi])

			// Level 0: sort own chunk locally.
			chunk := make([]uint32, hi-lo)
			t.ReadRange(bufA+int64(lo), chunk)
			slices.Sort(chunk)
			// n log n compares of register-resident data.
			steps := len(chunk) * bits(len(chunk))
			t.Compute(msortCompare * sim.Time(steps))
			t.WriteRange(bufA+int64(lo), chunk)
			t.AtomicAdd(done+int64(i), 1)

			// Merge tree: at level l, thread i (with i % 2^(l+1) == 0)
			// merges runs [i, i+2^l) and [i+2^l, i+2^(l+1)).
			src, dst := bufA, bufB
			for l := 0; l < levels; l++ {
				stride := 1 << (l + 1)
				half := 1 << l
				if i%stride != 0 {
					break // this thread is done after signaling
				}
				lo := bound[i]
				mid := bound[min(i+half, p)]
				hi := bound[min(i+stride, p)]
				// Wait for both producers of the previous level.
				t.WaitAtLeast(done+int64(l*p+i), 1)
				if i+half < p {
					t.WaitAtLeast(done+int64(l*p+i+half), 1)
				}
				mergeRuns(t, cfg, src, dst, lo, mid, hi)
				t.AtomicAdd(done+int64((l+1)*p+i), 1)
				src, dst = dst, src
			}

			// Thread 0 publishes the final buffer for verification.
			if i == 0 {
				final := make([]uint32, n)
				t.ReadRange(src, final)
				out = final
			}
		})
	}
	if err := pl.Run(); err != nil {
		return MergeSortResult{}, err
	}
	// A word lost or duplicated keeps the output sorted, so compare
	// with the input itself, sorted in place now that no thread reads it.
	slices.Sort(input)
	return MergeSortResult{Elapsed: pl.Elapsed(), Sorted: slices.Equal(input, out)}, nil
}

// mergeRuns merges src[lo:mid) and src[mid:hi) into dst[lo:hi),
// streaming both inputs and the output in page-friendly blocks.
func mergeRuns(t Env, cfg MergeSortConfig, src, dst int64, lo, mid, hi int) {
	if mid >= hi {
		// Odd tree node: copy through.
		if lo < hi {
			buf := make([]uint32, hi-lo)
			t.ReadRange(src+int64(lo), buf)
			t.WriteRange(dst+int64(lo), buf)
		}
		return
	}
	a := make([]uint32, mid-lo)
	b := make([]uint32, hi-mid)
	t.ReadRange(src+int64(lo), a)
	t.ReadRange(src+int64(mid), b)
	outBuf := make([]uint32, 0, hi-lo)
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		if a[ai] <= b[bi] {
			outBuf = append(outBuf, a[ai])
			ai++
		} else {
			outBuf = append(outBuf, b[bi])
			bi++
		}
	}
	outBuf = append(outBuf, a[ai:]...)
	outBuf = append(outBuf, b[bi:]...)
	t.Compute(msortCompare * sim.Time(len(outBuf)))
	t.WriteRange(dst+int64(lo), outBuf)
}

// bits returns ceil(log2(n)) for n >= 1.
func bits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}
