// Package sim implements a deterministic, sequential discrete-event
// simulation engine used as the time base for the simulated NUMA
// multiprocessor.
//
// The engine multiplexes any number of simulated threads, each with its
// own virtual clock. Each thread's body runs on a coroutine (iter.Pull)
// taken from a process-wide pool of reusable workers, and one engine
// loop, in Run, owns all dispatch: it resumes the runnable thread with
// the globally minimum (clock, id) pair and regains control when that
// thread yields, blocks or finishes. At most one simulated thread
// executes at a time, so every run is bit-for-bit reproducible
// regardless of the Go scheduler.
//
// A simulated thread consumes virtual time by calling Advance, blocks by
// calling Block, and is made runnable again when some other thread calls
// Unblock on it. Shared simulation state (memory modules, page tables,
// protocol state) needs no locking: it is only ever touched by the single
// currently-executing thread.
//
// Two scheduling optimizations keep the dispatch order — and therefore
// every simulation result — bit-for-bit identical while eliding work:
//
//   - fast path: a thread that advances its clock and remains strictly
//     the earliest runnable thread keeps executing in place, with no
//     coroutine switch at all (see Thread.Advance); SetFastPath /
//     SetDefaultFastPath disable this for A/B testing.
//   - fused handoff: a thread that advances past the earliest ready
//     thread swaps itself into that thread's heap slot and hands it to
//     the engine loop as its successor, so the loop resumes it without
//     a second heap operation.
package sim

import (
	"errors"
	"fmt"

	"platinum/internal/hist"
	"platinum/internal/timeseries"
)

// Time is a point in (or duration of) virtual time, in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats a Time with an adaptive unit, e.g. "1.340ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// ErrDeadlock is returned by Run when every remaining non-daemon thread
// is blocked and no thread can ever unblock them.
var ErrDeadlock = errors.New("sim: deadlock: all non-daemon threads blocked")

// errStopped is panicked inside a thread body to unwind it when the
// engine shuts down; the thread's worker recovers it.
type errStopped struct{}

// Engine is a deterministic discrete-event scheduler for simulated
// threads. The zero value is not usable; call NewEngine.
type Engine struct {
	ready    threadHeap
	threads  []*Thread // every thread since the last Reset, indexed by id
	now      Time
	running  *Thread
	nlive    int // non-daemon threads not yet finished
	readyND  int // non-daemon threads currently in the ready heap
	stopping bool
	fastPath bool
	fail     error // first thread-body panic, reported by Run

	// fastSteps counts dispatches elided entirely (a thread kept
	// executing in place, without any coroutine switch); slowSteps
	// counts the engine loop's resumes of a suspended thread. Exposed
	// through Stats.
	fastSteps int64
	slowSteps int64

	// nodeAcct accumulates per-node cost attribution for threads bound
	// via Thread.BindNode (see account.go); grown on demand.
	nodeAcct []Account

	// Opt-in charge-path telemetry (see telemetry.go): telemetry gates
	// the hot-path hook, histsOn/chargeHists the per-(node, cause)
	// latency histograms, seriesOn/causeSeries the windowed per-cause
	// time series.
	telemetry   bool
	histsOn     bool
	chargeHists []hist.H
	seriesOn    bool
	causeSeries *timeseries.Series

	// pool holds finished Thread structs recycled by Reset, which
	// Spawn reuses for new threads. (Their workers went back to the
	// process-wide idle pool when their bodies finished.)
	pool []*Thread
}

// ThreadPanicError reports a simulated thread whose body panicked — for
// kernel programs, the equivalent of the machine halting on a fatal
// trap. Run returns it and unwinds the remaining threads.
type ThreadPanicError struct {
	Thread string
	Value  any
}

// Error reports the panicking thread's name and the recovered value.
func (e *ThreadPanicError) Error() string {
	return fmt.Sprintf("sim: thread %q panicked: %v", e.Thread, e.Value)
}

// pushReady enqueues t for dispatch. A thread already resident in the
// ready heap (heapIdx >= 0) is not pushed again — its position is fixed
// up in place for the possibly-updated clock — so the heap never holds
// duplicate entries and readyND counts each thread at most once.
func (e *Engine) pushReady(t *Thread) {
	if t.heapIdx >= 0 {
		e.ready.fix(t.heapIdx)
		return
	}
	e.ready.push(t)
	if !t.daemon {
		e.readyND++
	}
}

// defaultFastPath is the fast-path setting inherited by new engines.
var defaultFastPath = true

// SetDefaultFastPath sets whether engines created by NewEngine use the
// scheduler fast path (see SetFastPath), returning the previous value.
// It exists so determinism tests can force the slow path through layers
// that construct their own engines; it is not safe to call concurrently
// with NewEngine.
func SetDefaultFastPath(on bool) bool {
	prev := defaultFastPath
	defaultFastPath = on
	return prev
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	return &Engine{fastPath: defaultFastPath}
}

// SetFastPath enables or disables the scheduler fast path, under which
// a thread calling Advance or Yield keeps executing in place whenever
// it is still strictly the earliest runnable thread (so the dispatcher
// would immediately re-select it anyway). The dispatch order — and
// therefore every simulation result — is identical either way; only
// the coroutine switches are elided. Enabled by default.
func (e *Engine) SetFastPath(on bool) { e.fastPath = on }

// Stats reports scheduler counters: dispatches elided by the fast path
// and the engine loop's resumes of suspended threads (handoffs).
func (e *Engine) Stats() (fastSteps, slowSteps int64) {
	return e.fastSteps, e.slowSteps
}

// Now reports the engine's current virtual time: the clock of the most
// recently dispatched thread.
func (e *Engine) Now() Time { return e.now }

// Spawn creates a new simulated thread whose body is fn, with its clock
// initialized to the current virtual time. The thread does not run until
// Run dispatches it. Spawn may be called before Run or from inside a
// running thread.
func (e *Engine) Spawn(name string, fn func(*Thread)) *Thread {
	var t *Thread
	if n := len(e.pool); n > 0 {
		t = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		t = new(Thread)
	}
	*t = Thread{
		engine:  e,
		id:      len(e.threads),
		name:    name,
		fn:      fn,
		clock:   e.now,
		heapIdx: -1,
		born:    e.now,
		node:    -1,
	}
	e.threads = append(e.threads, t)
	e.nlive++
	e.pushReady(t)
	return t
}

// Run executes the simulation until every non-daemon thread has finished.
// It returns ErrDeadlock if non-daemon threads remain but all are blocked.
// Daemon threads (see Thread.SetDaemon) still runnable at shutdown are
// unwound cleanly.
//
// Run must not be called from a goroutine locked to its OS thread: the
// runtime aborts when a coroutine, shared here by all engines, is
// resumed under other thread locking than its creator's.
func (e *Engine) Run() error {
	defer e.shutdown()
	var t *Thread // the successor the last thread handed over, if any
	for {
		if t == nil {
			if e.nlive == 0 || e.fail != nil {
				return e.fail
			}
			// If every live non-daemon thread is blocked, daemons in this
			// system never unblock application threads, so this is a
			// deadlock even while daemons remain runnable.
			if e.readyND == 0 {
				return ErrDeadlock
			}
			t = e.ready.pop()
			if !t.daemon {
				e.readyND--
			}
		}
		if t.clock > e.now {
			e.now = t.clock
		}
		e.running = t
		t.state = stateRunning
		e.slowSteps++
		// Run t on its worker until it gives control back, handing over
		// its successor (nil: pick one).
		if t.w == nil {
			getWorker(t)
		}
		next, _ := t.w.next()
		if t.state == stateDone {
			putWorker(t)
		}
		t = next
	}
}

// shutdown unwinds every unfinished thread, in id order. Resumed on a
// stopping engine, a thread panics with errStopped at its suspension
// point (or, never dispatched, skips its body), so it finishes; a
// deferred call that suspends it again while unwinding is resumed again.
func (e *Engine) shutdown() {
	e.stopping = true
	for _, t := range e.threads {
		if t.state == stateDone {
			continue
		}
		if t.w == nil {
			getWorker(t)
		}
		for t.state != stateDone {
			t.w.next()
		}
		putWorker(t)
	}
}

// Reset returns the engine to its freshly-constructed state — virtual
// time zero, no threads, thread ids restarting at 0 — while retaining
// every buffer it has grown: the ready heap's backing array, the
// thread table, the per-node account slice, and the finished Thread
// structs, which go into a free list that Spawn draws from.
// A reset engine behaves bit-for-bit identically to one from NewEngine;
// only the allocations are elided.
//
// Reset may only be called after Run has returned (or before any thread
// was spawned): every thread must have unwound. It panics if an
// unfinished thread remains.
func (e *Engine) Reset() {
	for _, t := range e.threads {
		if t.state != stateDone {
			panic(fmt.Sprintf("sim: Reset with unfinished thread %q", t.name))
		}
	}
	e.pool = append(e.pool, e.threads...)
	clear(e.threads)
	e.threads = e.threads[:0]
	// The heap may still hold entries for finished daemon threads that
	// were never popped; drop them, keeping the backing array.
	for i := range e.ready.items {
		e.ready.items[i] = nil
	}
	e.ready.items = e.ready.items[:0]
	e.now = 0
	e.running = nil
	e.nlive = 0
	e.readyND = 0
	e.stopping = false
	e.fastPath = defaultFastPath
	e.fail = nil
	e.fastSteps = 0
	e.slowSteps = 0
	// Zero the full capacity so BindNode can re-extend the slice within
	// it and expose only zeroed accounts.
	acct := e.nodeAcct[:cap(e.nodeAcct)]
	for i := range acct {
		acct[i] = Account{}
	}
	e.nodeAcct = e.nodeAcct[:0]
	e.resetTelemetry()
}
