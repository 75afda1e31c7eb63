package stress

import (
	"errors"
	"fmt"
	"hash/fnv"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/vm"
)

// world is one booted stack under test plus the harness's own model of
// it: the shadow word values, which spaces are active where, and where
// each space currently maps the shared object.
type world struct {
	cfg Config
	k   *kernel.Kernel
	sys *core.System
	obj *vm.Object

	spaces []*vm.Space
	base   []int64  // current base vpn of the object in each space
	active [][]bool // [space][proc]: activated by the harness

	// shadow mirrors every word the schedule can touch ([page][word]).
	// Pages materialize zero-filled, so the zero value is correct
	// before the first write.
	shadow [][shadowWords]uint32

	bugFired bool
}

// shadowWords is how many low words of each page schedules touch; kept
// small so ops collide on words often.
const shadowWords = 16

// pageWords is the simulated page size for stress runs: small pages
// keep block transfers cheap in host time without changing the
// protocol paths exercised.
const pageWords = 64

var errDataMismatch = errors.New("stress: shadow/data mismatch")

// buildWorld boots the full stack for cfg and maps one shared object
// into every address space.
func buildWorld(cfg Config) (*world, error) {
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.Nodes = cfg.Procs
	kcfg.Machine.PageWords = pageWords
	kcfg.Core.FramesPerModule = cfg.FramesPerModule
	kcfg.Core.DefrostPeriod = defrostPeriod
	k, err := kernel.Boot(kcfg)
	if err != nil {
		return nil, err
	}
	k.EnableSpans(0) // retained for the end-of-run reconciliation
	w := &world{
		cfg:    cfg,
		k:      k,
		sys:    k.System(),
		shadow: make([][shadowWords]uint32, cfg.Pages),
	}
	w.obj, err = k.Manager().NewObject("stress", cfg.Pages)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Spaces; i++ {
		sp := k.Manager().NewSpace()
		vpn, err := sp.MapAnywhere(w.obj, core.Read|core.Write)
		if err != nil {
			return nil, err
		}
		w.spaces = append(w.spaces, sp)
		w.base = append(w.base, vpn)
		w.active = append(w.active, make([]bool, cfg.Procs))
	}
	if cfg.Faults {
		in := &injector{}
		w.sys.SetFaultInjector(in)
		k.Machine().SetAccessFault(in.accessFault)
	}
	return w, nil
}

// Replay executes ops against a freshly built world, checking the
// protocol invariants, attribution conservation, and data coherence
// after every op, then frame conservation and span reconciliation
// (every span-carried cause's Self sum equals its account total) once
// the schedule completes. The first violation stops the run and is
// reported in Result.Failure; ErrNoMemory under total frame exhaustion
// is a legal outcome, counted but not a failure. A world that cannot
// be built is returned as an error. A schedule long enough to overflow
// the retained span buffer (span.Recorder's default capacity, about
// 200,000 ops at the default sizes) skips reconciliation.
func Replay(cfg Config, ops []Op) (*Result, error) {
	res := &Result{}
	w, err := buildWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("stress: boot: %w", err)
	}
	e := w.k.Engine()
	opIdx := -1
	e.Spawn("stress-driver", func(th *sim.Thread) {
		for i, op := range ops {
			opIdx = i
			if err := w.step(th, op, res); err != nil {
				res.Failure = &Failure{Seed: cfg.Seed, OpIndex: i, Op: op, Err: err, Ops: ops,
					Flight: w.k.Spans().Flight()}
				return
			}
			res.OpsRun++
		}
	})
	if err := w.k.Run(); err != nil && res.Failure == nil {
		// A panic that escaped the hardening pass (or a deadlock)
		// surfaces as an engine error; report it against the op that was
		// executing.
		f := &Failure{Seed: cfg.Seed, OpIndex: opIdx, Err: err, Ops: ops,
			Flight: w.k.Spans().Flight()}
		if opIdx >= 0 && opIdx < len(ops) {
			f.Op = ops[opIdx]
		}
		res.Failure = f
	}
	res.Elapsed = w.k.Now()
	w.collect(res)
	if res.Failure == nil {
		if err := w.checkEnd(res.Account); err != nil {
			res.Failure = &Failure{Seed: cfg.Seed, OpIndex: len(ops) - 1, Err: err, Ops: ops,
				Flight: w.k.Spans().Flight()}
		}
	}
	return res, nil
}

// step executes one op and runs the per-op checks.
func (w *world) step(th *sim.Thread, op Op, res *Result) error {
	th.BindNode(op.Proc)
	switch op.Kind {
	case OpRead, OpWrite:
		if err := w.access(th, op, res); err != nil {
			return err
		}
	case OpAdvance:
		th.Charge(sim.CauseCompute, op.Dt)
	case OpDeactivate:
		if w.active[op.Space][op.Proc] {
			if err := w.spaces[op.Space].Cmap().Deactivate(op.Proc); err != nil {
				return err
			}
			w.active[op.Space][op.Proc] = false
		}
	case OpDefrost:
		w.sys.DefrostSweep(th, op.Proc)
	case OpTeardown:
		if err := w.teardown(th, op); err != nil {
			return err
		}
	}
	w.maybeInjectBug()
	if err := w.sys.Validate(); err != nil {
		return err
	}
	if err := metrics.CheckConservation(w.k.Engine().NodeAccounts()); err != nil {
		return err
	}
	return nil
}

// access resolves a read or write through the protocol, applying the
// data operation atomically with the resolution and checking it against
// the shadow copy.
func (w *world) access(th *sim.Thread, op Op, res *Result) error {
	sp, proc := w.spaces[op.Space], op.Proc
	if !w.active[op.Space][proc] {
		// A processor must apply queued Cmap messages before touching a
		// space (stale-translation hazard), exactly as the kernel does
		// before running a thread in it.
		sp.Cmap().Activate(th, proc)
		w.active[op.Space][proc] = true
	}
	vpn := w.base[op.Space] + int64(op.Page)
	write := op.Kind == OpWrite
	var got uint32
	_, err := w.sys.Resolve(th, proc, sp.Cmap(), vpn, write, func(words []uint32) {
		if write {
			words[op.Word] = op.Val
		} else {
			got = words[op.Word]
		}
	})
	var nomem *core.ErrNoMemory
	if errors.As(err, &nomem) {
		res.NoMemory++
		return nil
	}
	if err != nil {
		return err
	}
	if write {
		res.Writes++
		w.shadow[op.Page][op.Word] = op.Val
		return nil
	}
	res.Reads++
	if want := w.shadow[op.Page][op.Word]; got != want {
		return fmt.Errorf("%w: page %d word %d: read %d, want %d (proc %d space %d)",
			errDataMismatch, op.Page, op.Word, got, want, op.Proc, op.Space)
	}
	return nil
}

// teardown unmaps the space's binding — shooting down every live
// translation for its pages — and remaps the object at a fresh range.
func (w *world) teardown(th *sim.Thread, op Op) error {
	sp := w.spaces[op.Space]
	if err := sp.Unmap(th, op.Proc, w.base[op.Space]); err != nil {
		return err
	}
	vpn, err := sp.MapAnywhere(w.obj, core.Read|core.Write)
	if err != nil {
		return err
	}
	w.base[op.Space] = vpn
	return nil
}

// maybeInjectBug applies the configured deliberate corruption once.
// "desync" moves a directory entry to the wrong module the first time
// a page goes present+ — the class of directory/IPT desync the
// hardening pass converts from panics into ErrInvariant.
func (w *world) maybeInjectBug() {
	if w.bugFired || w.cfg.Bug != "desync" {
		return
	}
	for _, cp := range w.sys.Cpages() {
		if cp.State() == core.PresentPlus {
			cs := cp.Copies()
			cs[0].Module = (cs[0].Module + 1) % w.cfg.Procs
			w.bugFired = true
			return
		}
	}
}

// checkEnd verifies end-of-run frame conservation — every allocated
// frame is exactly one directory copy — and that the retained spans
// reconcile with the machine-wide account.
func (w *world) checkEnd(total sim.Account) error {
	var allocated, copies int
	for m := 0; m < w.cfg.Procs; m++ {
		mm := w.sys.Memory().Module(m)
		allocated += mm.TotalFrames() - mm.FreeFrames()
	}
	for _, cp := range w.sys.Cpages() {
		copies += len(cp.Copies())
	}
	if allocated != copies {
		return fmt.Errorf("stress: frame leak: %d frames allocated, %d directory copies", allocated, copies)
	}
	if rec := w.k.Spans(); rec.Dropped() == 0 {
		return span.Reconcile(rec.Spans(), total)
	}
	return nil
}

// collect fills the run summary and the deterministic state digest.
func (w *world) collect(res *Result) {
	res.Account = w.k.TotalAccount()
	h := fnv.New64a()
	fmt.Fprintf(h, "t=%d\n", int64(res.Elapsed))
	for _, cp := range w.sys.Cpages() {
		st := cp.Stats
		res.Faults += st.Faults()
		res.Freezes += st.Freezes
		res.Thaws += st.Thaws
		fmt.Fprintf(h, "cp%d %v n=%d rf=%d wf=%d rep=%d mig=%d inv=%d rm=%d fz=%d th=%d af=%d hw=%d ft=%d\n",
			cp.ID(), cp.State(), len(cp.Copies()), st.ReadFaults, st.WriteFaults,
			st.Replications, st.Migrations, st.Invalidations, st.RemoteMaps,
			st.Freezes, st.Thaws, st.AllocFails, int64(st.HandlerWait), int64(st.FaultTime))
	}
	for n, a := range w.k.Engine().NodeAccounts() {
		fmt.Fprintf(h, "node%d", n)
		for c := sim.Cause(0); c < sim.NumCauses; c++ {
			fmt.Fprintf(h, " %d", int64(a[c]))
		}
		fmt.Fprintln(h)
	}
	res.Digest = fmt.Sprintf("%016x", h.Sum64())
}
