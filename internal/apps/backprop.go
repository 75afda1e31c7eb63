package apps

import (
	"fmt"
	"math"

	"platinum/internal/sim"
)

// Backpropagation network simulator (§5.3, Fig. 6). The paper's
// application is a recurrent backpropagation simulator with 40 units
// learning a classic encoder problem on 16 input/output pairs,
// parallelized by simple for-loop parallelization on units, with no
// synchronization beyond the atomicity of memory operations.
//
// We model it as a 16-8-16 encoder (16 + 8 + 16 = 40 units) learning
// the identity map over 16 one-hot patterns. Unit activations live in
// one shared page written at fine grain by every thread — exactly the
// access pattern PLATINUM cannot replicate profitably, so the coherent
// memory system freezes those pages and the computation runs on remote
// references. The expected Fig. 6 behaviour: speedup stays linear but
// each processor contributes only about half of an all-local processor.
//
// The absence of synchronization means threads read activations that
// may be one update stale; like the paper's program, the training
// tolerates this ("the non-determinism ... introduces negligible
// variability"). Values are float32s stored in word memory.

// BackpropConfig parameterizes a run.
type BackpropConfig struct {
	Epochs  int // training epochs over the 16 patterns
	Threads int // worker threads
}

// The paper's network.
const (
	bpIn, bpHid, bpOut = 16, 8, 16            // layer sizes: 40 units
	bpRate             = 1.5                  // learning rate
	bpMacCost          = 15 * sim.Microsecond // processor time per multiply-accumulate
)

// DefaultBackpropConfig returns the paper's training run on threads
// threads.
func DefaultBackpropConfig(threads int) BackpropConfig {
	return BackpropConfig{Epochs: 30, Threads: threads}
}

// BackpropResult reports a finished run.
type BackpropResult struct {
	Elapsed              sim.Time
	InitialSSE, FinalSSE float64 // sum-squared error before/after training
}

func f2w(f float32) uint32 { return math.Float32bits(f) }
func w2f(w uint32) float32 { return math.Float32frombits(w) }

// RunBackprop trains the encoder on pl and reports the loss trajectory.
func RunBackprop(pl Platform, cfg BackpropConfig) (BackpropResult, error) {
	if err := checkProcs(pl, cfg.Threads); err != nil {
		return BackpropResult{}, err
	}
	p := cfg.Threads
	if bpHid < p && bpOut < p {
		return BackpropResult{}, fmt.Errorf("apps: %d threads for %d/%d units", p, bpHid, bpOut)
	}

	// Shared state. Activations and deltas are fine-grain write-shared;
	// weights are partitioned by owner but read by everyone.
	actH, err := pl.Alloc("bp-hidden-acts", bpHid)
	if err != nil {
		return BackpropResult{}, err
	}
	actO, err := pl.Alloc("bp-output-acts", bpOut)
	if err != nil {
		return BackpropResult{}, err
	}
	deltaO, err := pl.Alloc("bp-output-deltas", bpOut)
	if err != nil {
		return BackpropResult{}, err
	}
	w1, err := pl.Alloc("bp-w1", bpIn*bpHid) // input -> hidden
	if err != nil {
		return BackpropResult{}, err
	}
	w2, err := pl.Alloc("bp-w2", bpHid*bpOut) // hidden -> output
	if err != nil {
		return BackpropResult{}, err
	}
	ev, err := pl.Alloc("bp-events", 8)
	if err != nil {
		return BackpropResult{}, err
	}
	// Spread the shared zones over distinct memory modules: they will be
	// frozen in place by the fine-grain sharing, and a sensible program
	// (or allocator) does not pile every hot page onto one node.
	if placer, ok := pl.(Placer); ok {
		for i, va := range []int64{actH, actO, deltaO, w1, w2, ev} {
			mod := (i*3 + 1) % pl.Procs()
			if err := placer.PlaceAt(va, mod); err != nil {
				return BackpropResult{}, err
			}
		}
	}

	sigmoid := func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	}

	// one-hot input/target patterns.
	patterns := bpIn
	var res BackpropResult

	for ti := 0; ti < p; ti++ {
		ti := ti
		pl.Spawn(fmt.Sprintf("bp-%d", ti), ti, func(t Env) {
			// Thread 0 initializes the weights with a deterministic
			// small-value pattern, then releases the others.
			if ti == 0 {
				rng := uint64(12345)
				init := func(base int64, n int) {
					for i := 0; i < n; i++ {
						rng = rng*6364136223846793005 + 1442695040888963407
						v := float32(int32(rng>>40))/float32(1<<24) - 0.5
						t.Write(base+int64(i), f2w(v))
					}
				}
				init(w1, bpIn*bpHid)
				init(w2, bpHid*bpOut)
				t.Write(ev, 1)
			} else {
				t.WaitAtLeast(ev, 1)
			}

			sse := func() float64 {
				// Measured by thread 0 only, over all patterns, using
				// the current weights (sequential forward pass).
				var total float64
				for pat := 0; pat < patterns; pat++ {
					h := make([]float32, bpHid)
					for j := 0; j < bpHid; j++ {
						sum := w2f(t.Read(w1 + int64(pat*bpHid+j)))
						h[j] = sigmoid(sum)
						t.Compute(bpMacCost * sim.Time(bpIn/8+1))
					}
					for k := 0; k < bpOut; k++ {
						var sum float32
						for j := 0; j < bpHid; j++ {
							sum += w2f(t.Read(w2+int64(j*bpOut+k))) * h[j]
						}
						o := sigmoid(sum)
						t.Compute(bpMacCost * sim.Time(bpHid))
						target := float32(0)
						if k == pat {
							target = 1
						}
						d := float64(o - target)
						total += d * d
					}
				}
				return total
			}
			if ti == 0 {
				res.InitialSSE = sse()
				t.Write(ev+1, 1)
			} else {
				t.WaitAtLeast(ev+1, 1)
			}

			// Training: units partitioned round-robin over threads; no
			// synchronization within an epoch (paper style). A light
			// epoch barrier keeps threads in the same epoch so learning
			// is well-defined.
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				for pat := 0; pat < patterns; pat++ {
					// Forward, hidden layer: one-hot input means the
					// activation is sigmoid(w1[pat][j]).
					for j := ti; j < bpHid; j += p {
						sum := w2f(t.Read(w1 + int64(pat*bpHid+j)))
						t.Compute(bpMacCost * sim.Time(bpIn/8+1))
						t.Write(actH+int64(j), f2w(sigmoid(sum)))
					}
					// Forward, output layer (reads possibly-stale
					// hidden activations — no sync, as in the paper).
					for k := ti; k < bpOut; k += p {
						var sum float32
						for j := 0; j < bpHid; j++ {
							sum += w2f(t.Read(w2+int64(j*bpOut+k))) * w2f(t.Read(actH+int64(j)))
						}
						o := sigmoid(sum)
						t.Compute(bpMacCost * sim.Time(bpHid))
						t.Write(actO+int64(k), f2w(o))
						target := float32(0)
						if k == pat {
							target = 1
						}
						t.Write(deltaO+int64(k), f2w((target-o)*o*(1-o)))
					}
					// Backward: hidden->output weights owned by their
					// output unit's thread; w1 update via backprop of
					// the owned hidden units.
					for k := ti; k < bpOut; k += p {
						d := w2f(t.Read(deltaO + int64(k)))
						for j := 0; j < bpHid; j++ {
							va := w2 + int64(j*bpOut+k)
							w := w2f(t.Read(va))
							h := w2f(t.Read(actH + int64(j)))
							t.Write(va, f2w(w+bpRate*d*h))
						}
						t.Compute(bpMacCost * sim.Time(bpHid))
					}
					for j := ti; j < bpHid; j += p {
						var back float32
						for k := 0; k < bpOut; k++ {
							back += w2f(t.Read(w2+int64(j*bpOut+k))) * w2f(t.Read(deltaO+int64(k)))
						}
						h := w2f(t.Read(actH + int64(j)))
						va := w1 + int64(pat*bpHid+j)
						w := w2f(t.Read(va))
						t.Write(va, f2w(w+bpRate*back*h*(1-h)))
						t.Compute(bpMacCost * sim.Time(bpOut))
					}
				}
				// Epoch barrier via a single event count.
				t.AtomicAdd(ev+2, 1)
				t.WaitAtLeast(ev+2, uint32((epoch+1)*p))
			}

			if ti == 0 {
				// Wait for everyone's last epoch, then measure.
				t.WaitAtLeast(ev+2, uint32(cfg.Epochs*p))
				res.FinalSSE = sse()
			}
		})
	}
	if err := pl.Run(); err != nil {
		return BackpropResult{}, err
	}
	res.Elapsed = pl.Elapsed()
	return res, nil
}
