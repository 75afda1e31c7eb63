package kernel

import (
	"fmt"

	"platinum/internal/sim"
	"platinum/internal/span"
)

// Thread is a kernel-scheduled thread of control (§1.1): bound to a
// single processor at any time, executing within a single address
// space, and movable between processors only by an explicit Migrate.
//
// Memory access methods panic on protection violations or unmapped
// addresses — the simulated equivalent of a fatal trap killing the
// program. Simulated programs are expected not to trip them.
type Thread struct {
	k     *Kernel
	st    *sim.Thread
	proc  int
	space *Space

	done    bool
	waiters []*Thread
	inbox   [][]uint32 // message handoff slot for port receives

	// slice is the open span of the thread's current scheduling slice
	// (its residence on t.proc); Migrate ends it and begins a new one
	// on the destination processor, and the spawn wrapper ends the last
	// one when the body returns.
	slice *span.Open
}

// Spawn creates a thread named name on processor proc in space sp. The
// body runs under the simulation engine once Kernel.Run is called. The
// thread activates its address space on its processor for its lifetime.
func (k *Kernel) Spawn(name string, proc int, sp *Space, body func(*Thread)) *Thread {
	if proc < 0 || proc >= k.Nodes() {
		panic(fmt.Sprintf("kernel: Spawn %q on bad processor %d", name, proc))
	}
	t := &Thread{k: k, proc: proc, space: sp}
	t.st = k.engine.Spawn(name, func(st *sim.Thread) {
		st.BindNode(t.proc)
		t.beginSlice()
		sp.vs.Cmap().Activate(st, t.proc)
		defer func() {
			st.Sync() // exit publishes done and the space's activation
			t.endSlice()
			if err := sp.vs.Cmap().Deactivate(t.proc); err != nil {
				panic(fmt.Sprintf("kernel: %v", err))
			}
			t.done = true
			for _, w := range t.waiters {
				w.st.Unblock(st.Now())
			}
			t.waiters = nil
		}()
		body(t)
	})
	return t
}

// beginSlice opens the thread's scheduling-slice span: its residence on
// one processor, from spawn or last migration until endSlice. Slices
// are structural (no attributed cost of their own) — they give the
// trace one enclosing track interval per processor residency, with the
// thread's faults, transfers and shootdowns nested inside.
func (t *Thread) beginSlice() {
	t.slice = t.k.sys.Spans().Begin(span.KindSlice, t.st.Now()).
		Proc(t.proc).Track(t.st.ID()).Note(t.st.Name())
}

// endSlice closes and records the current slice span.
func (t *Thread) endSlice() { t.slice.End(t.st.Now()) }

// Proc returns the processor the thread currently runs on.
func (t *Thread) Proc() int { return t.proc }

// Now returns the thread's virtual clock.
func (t *Thread) Now() sim.Time { return t.st.Now() }

// Compute charges d of pure processor time (no memory traffic) to the
// thread — the cost of register-level computation between memory
// references.
func (t *Thread) Compute(d sim.Time) { t.st.Charge(sim.CauseCompute, d) }

// Sim returns the underlying simulation thread.
func (t *Thread) Sim() *sim.Thread { return t.st }

// Migrate moves the thread to processor proc, deactivating the address
// space on the old processor, block-transferring the kernel stack
// (§2.2), and activating the space on the new one.
func (t *Thread) Migrate(proc int) {
	if proc < 0 || proc >= t.k.Nodes() {
		panic(fmt.Sprintf("kernel: Migrate to bad processor %d", proc))
	}
	if proc == t.proc {
		return
	}
	t.st.Sync()
	old := t.proc
	t.endSlice()
	if err := t.space.vs.Cmap().Deactivate(old); err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	t.st.Charge(sim.CauseKernel, migrateOverhead)
	t.k.machine.BlockTransfer(t.st, old, proc, t.k.PageWords())
	t.proc = proc
	// Future charges accrue to the new processor; history stays put.
	t.st.BindNode(proc)
	// The migration gap (overhead + stack transfer) sits between the
	// old processor's slice and the new one.
	t.beginSlice()
	t.space.vs.Cmap().Activate(t.st, proc)
}

// Join blocks until other's body has returned.
func (t *Thread) Join(other *Thread) {
	t.st.Sync()
	if other.done {
		t.st.Yield()
		return
	}
	other.waiters = append(other.waiters, t)
	t.st.Block()
}

// page resolves a word-granular virtual address into (vpn, offset).
func (t *Thread) page(va int64) (int64, int) {
	k := t.k
	if k.pwPow2 {
		return va >> k.pwShift, int(va & k.pwMask)
	}
	pw := int64(k.pw)
	return va / pw, int(va % pw)
}

// access performs n word accesses at va, applying f to the addressed
// words. It resolves coherency (possibly faulting), applies f to the
// resolved frame before yielding — an in-flight access completes against
// the frame it started on — and then charges the memory hardware cost.
func (t *Thread) access(va int64, n int, write bool, f func(w []uint32)) {
	vpn, off := t.page(va)
	if off+n > t.k.PageWords() {
		panic(fmt.Sprintf("kernel: access [%d,%d) crosses a page boundary", va, va+int64(n)))
	}
	// Resolve syncs too, but a thread that suspends here, before the
	// call, resumes faster than one suspended inside Resolve: paired
	// bench runs on a 2-vCPU Xeon measured topomix-256 9% and
	// gauss-16p 5% faster with this check.
	t.st.Sync()
	c, err := t.k.sys.Resolve(t.st, t.proc, t.space.vs.Cmap(), vpn, write,
		func(w []uint32) { f(w[off : off+n]) })
	if err != nil {
		panic(fmt.Sprintf("kernel: fatal memory trap: %v", err))
	}
	t.k.machine.Access(t.st, t.proc, c.Module, n, write)
}

// Read returns the word at virtual address va.
func (t *Thread) Read(va int64) uint32 {
	var v uint32
	t.access(va, 1, false, func(w []uint32) { v = w[0] })
	return v
}

// Write stores v at virtual address va.
func (t *Thread) Write(va int64, v uint32) {
	t.access(va, 1, true, func(w []uint32) { w[0] = v })
}

// ReadRange fills dst with the words starting at va, splitting the
// operation at page boundaries so each page faults independently.
func (t *Thread) ReadRange(va int64, dst []uint32) {
	for len(dst) > 0 {
		_, off := t.page(va)
		n := t.k.PageWords() - off
		if n > len(dst) {
			n = len(dst)
		}
		d := dst[:n]
		t.access(va, n, false, func(w []uint32) { copy(d, w) })
		dst = dst[n:]
		va += int64(n)
	}
}

// WriteRange stores src at the words starting at va.
func (t *Thread) WriteRange(va int64, src []uint32) {
	for len(src) > 0 {
		_, off := t.page(va)
		n := t.k.PageWords() - off
		if n > len(src) {
			n = len(src)
		}
		sr := src[:n]
		t.access(va, n, true, func(w []uint32) { copy(w, sr) })
		src = src[n:]
		va += int64(n)
	}
}

// UpdateSlice applies f to each page run of [va, va+n) as a whole
// slice: f(base, w) must update w in place, where w holds the words at
// [va+base, va+base+len(w)). Each page run is charged as one read pass
// plus one write pass over the touched words; f runs once per run
// instead of once per word, so tight numeric kernels avoid a dynamic
// call per element.
func (t *Thread) UpdateSlice(va int64, n int, f func(base int, w []uint32)) {
	done := 0
	for done < n {
		vpn, off := t.page(va)
		run := t.k.PageWords() - off
		if run > n-done {
			run = n - done
		}
		base := done
		t.access(va, run, true, func(w []uint32) { f(base, w) })
		// The write-mode access charged the store pass; charge the load
		// pass against the page's current module.
		if c, err := t.k.sys.Touch(t.st, t.proc, t.space.vs.Cmap(), vpn, false); err == nil {
			t.k.machine.Access(t.st, t.proc, c.Module, run, false)
		}
		done += run
		va += int64(run)
	}
}

// AtomicAdd atomically adds delta to the word at va and returns the new
// value. It models the Butterfly's atomic memory operations as one read
// cycle plus one write cycle at the page's current copy.
func (t *Thread) AtomicAdd(va int64, delta uint32) uint32 {
	vpn, off := t.page(va)
	var nv uint32
	c, err := t.k.sys.Resolve(t.st, t.proc, t.space.vs.Cmap(), vpn, true,
		func(w []uint32) {
			w[off] += delta
			nv = w[off]
		})
	if err != nil {
		panic(fmt.Sprintf("kernel: fatal memory trap: %v", err))
	}
	t.k.machine.Access(t.st, t.proc, c.Module, 1, false)
	t.k.machine.Access(t.st, t.proc, c.Module, 1, true)
	return nv
}

// SpinWait polls the word at va until pred accepts it, backing off
// exponentially from spinPoll to spinPollMax between polls. Every poll
// is a real (possibly remote) memory reference, so spinning on a frozen
// page congests that page's memory module — the §4.2 anecdote emerges
// from this, it is not scripted.
func (t *Thread) SpinWait(va int64, pred func(uint32) bool) uint32 {
	backoff := spinPoll
	for {
		v := t.Read(va)
		if pred(v) {
			return v
		}
		t.st.Charge(sim.CauseSync, backoff)
		backoff = min(2*backoff, spinPollMax)
	}
}

// WaitAtLeast spins until the word at va reaches at least target
// (an event-count wait, the Butterfly's preferred synchronization).
func (t *Thread) WaitAtLeast(va int64, target uint32) uint32 {
	return t.SpinWait(va, func(v uint32) bool { return v >= target })
}
