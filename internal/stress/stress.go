// Package stress is a seeded, deterministic stress and fault-injection
// harness for the coherent memory protocol. It generates randomized
// operation schedules — reads and writes from random processors,
// freeze/thaw races against the defrost daemon, address-space teardown
// while other processors hold live translations, and frame-pool
// pressure near exhaustion — and drives them through the full stack
// (sim engine, machine model, coherent memory system, VM layer,
// kernel boot). After every operation the harness checks the
// protocol's structural invariants (core.Validate), the
// cost-attribution conservation invariant (metrics.CheckConservation),
// and data coherence against a shadow copy of every word written.
//
// Everything is derived from a single seed, so any failure is exactly
// reproducible; on failure the harness can shrink the schedule
// (ddmin-style greedy deletion) to a minimal reproducer of a few ops
// and print it together with the seed.
package stress

import (
	"fmt"
	"math/rand"
	"strings"

	"platinum/internal/sim"
	"platinum/internal/span"
)

// OpKind enumerates the operations a stress schedule is built from.
type OpKind uint8

// Operation kinds.
const (
	// OpRead reads one word from a random page through a random
	// processor, checking the value against the shadow copy.
	OpRead OpKind = iota
	// OpWrite writes one word through a random processor, updating the
	// shadow copy atomically with the protocol-level resolution.
	OpWrite
	// OpAdvance advances the issuing processor's virtual time, letting
	// policy windows (T1) expire and the defrost daemon run — the source
	// of freeze/thaw races.
	OpAdvance
	// OpDeactivate deactivates an address space on a processor, so
	// subsequent shootdowns queue Cmap messages for it instead of
	// interrupting it (exercising the lazy half of the protocol).
	OpDeactivate
	// OpDefrost invokes a defrost sweep from the issuing processor,
	// racing thaw shootdowns against the access stream.
	OpDefrost
	// OpTeardown unmaps the space's binding — shooting down every
	// processor's live translations — and immediately remaps the object
	// at a fresh virtual range, so later ops stay valid.
	OpTeardown
	numOpKinds
)

// String returns the op kind's short name, used in reproducer listings.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAdvance:
		return "advance"
	case OpDeactivate:
		return "deactivate"
	case OpDefrost:
		return "defrost"
	case OpTeardown:
		return "teardown"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one step of a stress schedule. Every field is concrete — a
// schedule replays exactly, independent of the seed that generated it,
// which is what makes shrinking sound.
type Op struct {
	Kind  OpKind
	Proc  int      // issuing processor
	Space int      // address-space index
	Page  int      // page index within the shared object
	Word  int      // word offset within the page
	Val   uint32   // value written (OpWrite)
	Dt    sim.Time // time advanced (OpAdvance)
}

// String renders the op compactly for reproducer listings.
func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read  proc=%d space=%d page=%d word=%d", o.Proc, o.Space, o.Page, o.Word)
	case OpWrite:
		return fmt.Sprintf("write proc=%d space=%d page=%d word=%d val=%d", o.Proc, o.Space, o.Page, o.Word, o.Val)
	case OpAdvance:
		return fmt.Sprintf("advance proc=%d dt=%v", o.Proc, o.Dt)
	case OpDeactivate:
		return fmt.Sprintf("deactivate proc=%d space=%d", o.Proc, o.Space)
	case OpDefrost:
		return fmt.Sprintf("defrost proc=%d", o.Proc)
	case OpTeardown:
		return fmt.Sprintf("teardown proc=%d space=%d", o.Proc, o.Space)
	}
	return o.Kind.String()
}

// Config parameterizes a stress run. The zero value is not runnable;
// use DefaultConfig and override.
type Config struct {
	Seed   int64 // schedule PRNG seed
	Ops    int   // schedule length
	Procs  int   // simulated processors (= memory modules)
	Spaces int   // address spaces sharing the object
	Pages  int   // pages in the shared memory object

	// FramesPerModule sizes each module's frame pool. The default is
	// deliberately small relative to Pages×Procs so schedules run the
	// pool to the edge of exhaustion and exercise the remote-reference
	// fallback paths.
	FramesPerModule int

	// DefrostPeriod is the daemon's t2; short enough that multi-
	// millisecond schedules see several sweeps.
	DefrostPeriod sim.Time

	// Faults configures fault injection. The zero value injects nothing.
	Faults FaultConfig

	// Bug deliberately corrupts protocol state to prove the harness
	// catches and shrinks real defects. "" disables; "desync" moves a
	// directory copy entry to the wrong module the first time a page
	// becomes present+ (a directory/IPT desync).
	Bug string
}

// DefaultConfig returns a small, high-pressure configuration: few
// frames per module, several address spaces, and a fast defrost daemon.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Ops:             1000,
		Procs:           4,
		Spaces:          2,
		Pages:           8,
		FramesPerModule: 6,
		DefrostPeriod:   50 * sim.Millisecond,
	}
}

// Validate reports the first field that makes cfg unrunnable: a
// schedule needs a non-negative length, at least one processor, address
// space and page to draw from, and a known Bug name. Limits the machine
// itself imposes (node count, frames per module) are reported when Run
// boots it.
func (cfg Config) Validate() error {
	switch {
	case cfg.Ops < 0:
		return fmt.Errorf("stress: ops = %d, must be non-negative", cfg.Ops)
	case cfg.Procs < 1:
		return fmt.Errorf("stress: procs = %d, must be at least 1", cfg.Procs)
	case cfg.Spaces < 1:
		return fmt.Errorf("stress: spaces = %d, must be at least 1", cfg.Spaces)
	case cfg.Pages < 1:
		return fmt.Errorf("stress: pages = %d, must be at least 1", cfg.Pages)
	case cfg.Bug != "" && cfg.Bug != "desync":
		return fmt.Errorf("stress: unknown bug %q (want \"desync\" or none)", cfg.Bug)
	}
	return nil
}

// Generate derives the deterministic op schedule for cfg from its seed;
// cfg must be valid (see Validate).
func Generate(cfg Config) []Op {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := make([]Op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		op := Op{
			Proc:  rng.Intn(cfg.Procs),
			Space: rng.Intn(cfg.Spaces),
			Page:  rng.Intn(cfg.Pages),
			Word:  rng.Intn(16), // low words only: collisions on purpose
		}
		switch p := rng.Intn(100); {
		case p < 40:
			op.Kind = OpRead
		case p < 70:
			op.Kind = OpWrite
			op.Val = rng.Uint32()
		case p < 82:
			op.Kind = OpAdvance
			// Spread across the interesting scales: within T1, past T1,
			// and past the defrost period.
			op.Dt = sim.Time(1 + rng.Int63n(int64(2*cfg.DefrostPeriod)))
		case p < 90:
			op.Kind = OpDeactivate
		case p < 96:
			op.Kind = OpDefrost
		default:
			op.Kind = OpTeardown
		}
		ops = append(ops, op)
	}
	return ops
}

// Failure describes a stress run that tripped an invariant: the op that
// exposed it, its index, and the error. Ops holds the schedule replayed
// (possibly already shrunk).
type Failure struct {
	Seed    int64
	OpIndex int
	Op      Op
	Err     error
	Ops     []Op

	// Flight is the always-on flight recorder's contents at the moment
	// of failure: the last span.DefaultFlightSpans causal spans
	// (faults, shootdown rounds, transfers, defrost sweeps) leading up
	// to the violation, oldest first.
	Flight []span.Span
}

// Error summarizes the failure in one line.
func (f *Failure) Error() string {
	return fmt.Sprintf("stress: seed %d op %d (%s): %v", f.Seed, f.OpIndex, f.Op, f.Err)
}

// Repro renders the failing schedule as a human-readable minimal
// reproducer: the seed, the command line that replays it, and the op
// listing itself.
func (f *Failure) Repro() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reproducer: seed=%d ops=%d failing-op=%d\n", f.Seed, len(f.Ops), f.OpIndex)
	fmt.Fprintf(&b, "error: %v\n", f.Err)
	fmt.Fprintf(&b, "schedule:\n")
	for i, op := range f.Ops {
		marker := "  "
		if i == f.OpIndex {
			marker = "=>"
		}
		fmt.Fprintf(&b, "%s %4d: %s\n", marker, i, op)
	}
	if len(f.Flight) > 0 {
		fmt.Fprintf(&b, "flight recorder (last %d spans before the failure):\n", len(f.Flight))
		span.Format(&b, f.Flight)
	}
	return b.String()
}

// Result summarizes a completed stress run.
type Result struct {
	OpsRun    int      // ops executed (schedule length on a clean run)
	Elapsed   sim.Time // final virtual time
	Reads     int64
	Writes    int64
	NoMemory  int64 // accesses that hit total frame exhaustion (legal)
	Faults    int64 // coherent faults taken (read + write)
	Thaws     int64
	Freezes   int64
	Account   sim.Account // machine-wide cost breakdown (sum of node accounts)
	Digest    string      // deterministic fingerprint of the final state
	Failure   *Failure    // nil on a clean run
	ShrunkLen int         // minimal schedule length after shrinking (0 if clean or not shrunk)
}

// Run validates cfg, generates its schedule, replays it, and — when
// shrink is set and the run failed — shrinks the schedule to a minimal
// reproducer (available via Result.Failure.Ops). An invalid cfg or a
// machine that does not boot is an error, not a Failure: there is no
// schedule to reproduce.
func Run(cfg Config, shrink bool) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ops := Generate(cfg)
	res, err := Replay(cfg, ops)
	if err != nil {
		return nil, err
	}
	if res.Failure != nil && shrink {
		minOps, minFail := Shrink(cfg, res.Failure.Ops[:res.Failure.OpIndex+1])
		if minFail != nil {
			res.Failure = minFail
			res.ShrunkLen = len(minOps)
		}
	}
	return res, nil
}
