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
// All methods that consume or yield virtual time (Advance, Yield, Block)
// must be called only from within the thread's own body function.
type Thread struct {
	engine *Engine
	id     int
	name   string
	clock  Time
	daemon bool
	state  threadState

	fn      func(*Thread) // the body; nil once it has finished
	w       *worker       // runs the body; nil before dispatch and once done
	heapIdx int           // index in the ready heap, -1 if absent

	// Cost attribution (see account.go): born is the clock at Spawn,
	// acct the per-cause time consumed since, node the processor whose
	// engine-level account also receives this thread's charges (-1:
	// none).
	born Time
	acct Account
	node int
}

// ID returns the thread's unique id, assigned in spawn order.
func (t *Thread) ID() int { return t.id }

// Name returns the name given at Spawn.
func (t *Thread) Name() string { return t.name }

// Now returns the thread's virtual clock.
func (t *Thread) Now() Time { return t.clock }

// Engine returns the engine the thread belongs to.
func (t *Thread) Engine() *Engine { return t.engine }

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

// suspend gives control back to the engine loop, handing it next to run
// (nil: the loop picks), and returns once the loop resumes t. On a
// stopping engine it unwinds t instead.
func (t *Thread) suspend(next *Thread) {
	t.w.yield(next)
	if t.engine.stopping {
		panic(errStopped{})
	}
}

// finish runs when t's body returns or panics, on t's worker: it marks
// t done and records a panic other than errStopped as the machine
// halting, for Run to report.
func (t *Thread) finish() {
	e := t.engine
	if r := recover(); r != nil {
		if _, ok := r.(errStopped); !ok && e.fail == nil {
			e.fail = &ThreadPanicError{Thread: t.name, Value: r}
		}
	}
	t.state = stateDone
	t.fn = nil // Reset's free list keeps t; let the body's captures go
	if !t.daemon {
		e.nlive--
	}
}

// Advance consumes d of virtual time and yields to the scheduler, so any
// thread whose clock is now smaller runs first. d must be non-negative.
//
// Fast path: if after advancing the thread is still strictly the
// earliest runnable thread — the ready heap is empty, or its minimum
// entry orders after (clock, id) — the engine loop would pop this thread
// right back, so Advance skips the round trip through the loop and
// returns with the thread still running. This elides two coroutine
// switches per reference for any phase where one thread runs behind all
// others (in particular the whole of every 1-processor run) while
// leaving the dispatch order bit-for-bit identical.
func (t *Thread) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative Advance(%d) by thread %q", d, t.name))
	}
	t.clock += d
	t.bank(CauseUnattributed, d)
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
			// sift-down and hand top to the engine loop as the successor.
			// t being a live non-daemon guarantees the loop's liveness
			// conditions (nlive > 0, a non-daemon ready) hold.
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

// Block parks the thread until another thread calls Unblock on it.
func (t *Thread) Block() {
	t.state = stateBlocked
	t.suspend(nil)
}

// Unblock makes a blocked thread runnable again with its clock advanced
// to at least wake (a blocked thread cannot resume before the event that
// woke it). The clock jump is attributed to CauseSync — it is time the
// thread spent blocked. Unblocking a thread that is not blocked is a
// no-op and reports false.
func (t *Thread) Unblock(wake Time) bool {
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

// Done reports whether the thread's body has returned.
func (t *Thread) Done() bool { return t.state == stateDone }
