package sim

import "fmt"

type threadState uint8

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateDone
)

// Thread is a simulated thread of control with its own virtual clock.
// All methods that consume or yield virtual time (Advance, Delay, Sync,
// Yield, Block) must be called only from within the thread's own body
// function.
type Thread struct {
	engine  *Engine
	id      int
	name    string
	clock   Time
	daemon  bool
	state   threadState
	pending bool // a Delay's dispatch check is still to be made

	fn      func(*Thread) // the body; nil once it has returned or finished
	w       *worker       // runs the body; nil before dispatch and once done
	heapIdx int           // index in the ready heap, -1 if absent

	// node is the processor whose engine-level account receives this
	// thread's charges (-1: none; see account.go).
	node int
}

// ID returns the thread's unique id, assigned in spawn order.
func (t *Thread) ID() int { return t.id }

// Name returns the name given at Spawn.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's virtual clock.
func (t *Thread) Now() Time { return t.clock }

// SetDaemon marks the thread as a daemon. The engine's Run returns once
// all non-daemon threads finish, even if daemons are still runnable.
// Must be called before Run dispatches the thread for the first time.
func (t *Thread) SetDaemon(d bool) {
	if t.daemon == d {
		return
	}
	t.daemon = d
	if d {
		t.engine.nlive--
	} else {
		t.engine.nlive++
	}
	if t.heapIdx >= 0 || t.state == stateReady {
		if d {
			t.engine.readyND--
		} else {
			t.engine.readyND++
		}
	}
}

// suspend gives the processor to next (nil: the earliest ready thread,
// or Run's caller once the run is over) and returns once t is resumed.
// On a stopping engine it unwinds t instead.
func (t *Thread) suspend(next *Thread) {
	t.w.handoff(t.engine, next)
	if t.engine.stopping {
		panic(errStopped{})
	}
}

// finish runs when t's body returns, panics or calls runtime.Goexit, on
// t's worker: it marks t done, records a panic other than errStopped as
// the machine halting, for Run to report, and leaves the worker to the
// engine's spare list, or, after a Goexit, to passGoexit.
func (t *Thread) finish() {
	e := t.engine
	r := recover()
	if r != nil {
		if _, ok := r.(errStopped); !ok && e.fail == nil {
			e.fail = &ThreadPanicError{Thread: t.name, Value: r}
		}
	}
	goexit := r == nil && t.fn != nil // neither returned nor panicked
	t.state = stateDone
	t.fn = nil // Reset's free list keeps t; let the body's captures go
	if !t.daemon {
		e.nlive--
	}
	w := t.w
	w.t, t.w = nil, nil
	if goexit {
		e.passGoexit(w)
		return
	}
	w.link, e.spare = e.spare, w
}

// Advance consumes d of virtual time and yields to the scheduler, so any
// thread whose clock is now smaller runs first. It also makes the check
// of any pending Delay. d must be non-negative.
//
// Fast path: if after advancing the thread is still strictly the
// earliest runnable thread — the ready heap is empty, or its minimum
// entry orders after (clock, id) — dispatch would pop this thread right
// back, so Advance skips it and returns with the thread still running.
// This elides the dispatch for any phase where one thread runs behind
// all others (in particular the whole of every 1-processor run) while
// leaving the dispatch order bit-for-bit identical.
func (t *Thread) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Advance(%d) by thread %q", d, t.name))
	}
	t.clock += d
	t.bank(CauseUnattributed, d)
	t.pending = false
	e := t.engine
	if e.fastPath && e.running == t && !e.stopping {
		top := e.ready.peek()
		if top == nil ||
			t.clock < top.clock || (t.clock == top.clock && t.id < top.id) {
			if t.clock > e.now {
				e.now = t.clock
			}
			e.fastSteps++
			return
		}
		if !t.daemon {
			// Fused handoff: top orders before t, so push(t)+pop() would
			// return exactly top. Swap t into top's slot with one
			// sift-down and resume top as the successor. t being a live
			// non-daemon guarantees the run is not over (nlive > 0, a
			// non-daemon ready).
			u := e.ready.replaceTop(t)
			t.state = stateReady
			if u.daemon {
				e.readyND++ // non-daemon t entered the heap, daemon u left
			}
			t.suspend(u)
			return
		}
	}
	t.state = stateReady
	e.pushReady(t)
	t.suspend(nil)
}

// Delay consumes d of virtual time like Advance but postpones its
// dispatch check to the thread's next Sync or Advance. Order matters
// only where threads meet — shared state, spawn, unblock, exit — so a
// thread whose next step is private runs on without yielding, and one
// check before its next shared action puts it back in (clock, id)
// order. Every shared action must therefore be preceded by a Sync;
// Block panics while a Delay is pending. d must be non-negative.
func (t *Thread) Delay(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Delay(%d) by thread %q", d, t.name))
	}
	t.clock += d
	t.bank(CauseUnattributed, d)
	t.pending = true
}

// Sync makes the dispatch check a Delay postponed: with one pending it
// is Advance(0), so every thread that orders before this one runs
// first; otherwise, or on a stopping engine, it does nothing. Call it
// at the start of every action on state other threads can see.
func (t *Thread) Sync() {
	if t.pending && !t.engine.stopping {
		t.Advance(0)
	}
}

// AdvanceTo advances the thread's clock to at least instant.
func (t *Thread) AdvanceTo(instant Time) {
	if instant > t.clock {
		t.Advance(instant - t.clock)
	} else {
		t.Yield()
	}
}

// Yield lets equal- or lower-clock threads run without consuming time.
func (t *Thread) Yield() { t.Advance(0) }

// Block parks the thread until another thread calls Unblock on it. It
// panics while a Delay is pending: blocking publishes the thread's
// state, so a Sync must come first.
func (t *Thread) Block() {
	if t.pending {
		panic(fmt.Sprintf("sim: thread %q blocks with a Delay pending (missing Sync)", t.name))
	}
	t.state = stateBlocked
	t.suspend(nil)
}

// Unblock makes a blocked thread runnable again with its clock advanced
// to at least wake (a blocked thread cannot resume before the event that
// woke it). The clock jump is attributed to CauseSync — it is time the
// thread spent blocked. Unblocking a thread that is not blocked is a
// no-op and reports false. Called from a running thread, it first makes
// that thread's pending dispatch check (see Sync).
func (t *Thread) Unblock(wake Time) bool {
	t.engine.syncRunning()
	if t.state != stateBlocked {
		return false
	}
	if wake > t.clock {
		t.bank(CauseSync, wake-t.clock)
		t.clock = wake
	}
	t.state = stateReady
	t.engine.pushReady(t)
	return true
}
