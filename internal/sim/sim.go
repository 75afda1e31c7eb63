// Package sim implements a deterministic, sequential discrete-event
// simulation engine used as the time base for the simulated NUMA
// multiprocessor.
//
// The engine multiplexes any number of simulated threads, each with its
// own virtual clock. Each thread's body runs on a coroutine (iter.Pull)
// taken from a process-wide pool of reusable workers. Dispatch always
// resumes the runnable thread with the globally minimum (clock, id)
// pair, and there is no central loop: a thread that yields, blocks or
// finishes picks its successor and resumes it itself, with one
// coroutine switch, while Run's caller waits until the run ends (see
// worker.go). At most one simulated thread executes at a time, so
// every run is bit-for-bit reproducible regardless of the Go scheduler.
//
// A simulated thread consumes virtual time by calling Advance, blocks by
// calling Block, and is made runnable again when some other thread calls
// Unblock on it. Shared simulation state (memory modules, page tables,
// protocol state) needs no locking: it is only ever touched by the single
// currently-executing thread.
//
// Three scheduling optimizations keep the order in which threads reach
// shared state — and therefore every simulation result — bit-for-bit
// identical while eliding work:
//
//   - fast path: a thread that advances its clock and remains strictly
//     the earliest runnable thread keeps executing in place, with no
//     coroutine switch at all (see Thread.Advance); SetFastPath
//     disables it per engine for A/B testing.
//   - fused handoff: a thread that advances past the earliest ready
//     thread swaps itself into that thread's heap slot and resumes it
//     as its successor, without a second heap operation.
//   - deferred dispatch check: Delay advances the clock without the
//     check, and Sync makes it before the thread's next shared action,
//     so a thread yields only where order matters. Spawn, Unblock and
//     thread exit sync the running thread themselves; layers above
//     sync before touching their own shared state.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"

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
		return fixed3(float64(t)/float64(Second), "s")
	case t >= Millisecond:
		return fixed3(float64(t)/float64(Millisecond), "ms")
	case t >= Microsecond:
		return fixed3(float64(t)/float64(Microsecond), "µs")
	default:
		return strconv.FormatInt(int64(t), 10) + "ns"
	}
}

// fixed3 formats v with three decimals followed by unit, in one
// allocation. It uses strconv rather than fmt, whose printers come from
// a sync.Pool that the collector empties: a run that formats times
// would otherwise allocate more or less depending on when a collection
// landed in it.
func fixed3(v float64, unit string) string {
	var buf [32]byte
	return string(append(strconv.AppendFloat(buf[:0], v, 'f', 3, 64), unit...))
}

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
	// counts dispatches, each a handoff to the dispatched thread by one
	// coroutine switch, or none when that thread runs on the
	// dispatching goroutine. Exposed through Stats.
	fastSteps int64
	slowSteps int64

	// callerAt is the coroutine Run's caller waits at (see worker.go);
	// spare lists the workers of finished threads, linked through
	// worker.link, for the engine's next threads and, once the run
	// ends, for the idle pool.
	callerAt *worker
	spare    *worker

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
	// process-wide idle pool when Run returned.)
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

// NewEngine returns an empty engine at virtual time zero, with the
// scheduler fast path on.
func NewEngine() *Engine {
	return &Engine{fastPath: true}
}

// SetFastPath enables or disables the scheduler fast path, under which
// a thread calling Advance or Yield keeps executing in place whenever
// it is still strictly the earliest runnable thread (so the dispatcher
// would immediately re-select it anyway). The dispatch order — and
// therefore every simulation result — is identical either way; only
// the coroutine switches are elided. Enabled by default.
func (e *Engine) SetFastPath(on bool) { e.fastPath = on }

// Stats reports scheduler counters: dispatches elided by the fast path,
// and dispatches made, each a handoff to the thread dispatched.
func (e *Engine) Stats() (fastSteps, slowSteps int64) {
	return e.fastSteps, e.slowSteps
}

// Now reports the engine's current virtual time: the clock of the most
// recently dispatched thread. It does not include the running thread's
// pending Delay until that thread's next Sync.
func (e *Engine) Now() Time { return e.now }

// syncRunning makes the running thread's pending dispatch check (see
// Thread.Sync) before an engine action taken on its behalf.
func (e *Engine) syncRunning() {
	if e.running != nil {
		e.running.Sync()
	}
}

// Spawn creates a new simulated thread whose body is fn, with its clock
// initialized to the current virtual time. The thread does not run until
// Run dispatches it. Spawn may be called before Run or from inside a
// running thread, whose pending dispatch check it makes first.
func (e *Engine) Spawn(name string, fn func(*Thread)) *Thread {
	e.syncRunning()
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
// unwound cleanly. The caller dispatches the first thread and then waits
// until a thread ends the run; a body's runtime.Goexit ends the caller
// too.
//
// Run must not be called from a goroutine locked to its OS thread: the
// runtime aborts when a coroutine, shared here by all engines, is
// resumed under other thread locking than its creator's.
func (e *Engine) Run() error {
	defer e.shutdown()
	if w := e.dispatch(nil); w != nil {
		e.wait(w.at)
	}
	if e.nlive == 0 || e.fail != nil {
		return e.fail
	}
	// Every live non-daemon thread is blocked. Daemons in this system
	// never unblock application threads, so this is a deadlock even
	// while daemons remain runnable.
	return ErrDeadlock
}

// dispatch makes next, or the earliest ready thread if next is nil, the
// running thread, and returns the worker that runs it. It returns nil
// instead when the run is over — every non-daemon thread finished, a
// body panicked, or every live non-daemon thread is blocked — or the
// engine is shutting down: then Run's caller takes the processor back.
func (e *Engine) dispatch(next *Thread) *worker {
	if next == nil {
		if e.stopping || e.nlive == 0 || e.fail != nil || e.readyND == 0 {
			return nil
		}
		next = e.ready.pop()
		if !next.daemon {
			e.readyND--
		}
	}
	if next.clock > e.now {
		e.now = next.clock
	}
	e.running = next
	next.state = stateRunning
	e.slowSteps++
	if next.w == nil {
		e.getWorker(next)
	}
	return next.w
}

// wait is Run's caller's switch: it resumes the goroutine waiting at c
// and returns once the processor comes back. A body's runtime.Goexit
// ends the caller too (see passGoexit).
func (e *Engine) wait(c *worker) {
	if !switchOn(&e.callerAt, c) {
		runtime.Goexit()
	}
}

// shutdown unwinds every unfinished thread, in id order. Resumed on a
// stopping engine, a thread panics with errStopped at its suspension
// point (or, never dispatched, skips its body), so it finishes; a
// deferred call that suspends it again while unwinding is resumed again,
// and a thread one spawns while unwinding finishes in its turn.
// Then every worker is idle, and shutdown walks each back to its own
// coroutine and returns it to the idle pool. Resuming a worker that
// waits elsewhere sends it home, which resumes the worker waiting at
// its coroutine, which goes home in turn, until the one whose coroutine
// the caller waits at resumes the caller: one wait puts a whole cycle
// of the permutation home.
func (e *Engine) shutdown() {
	e.stopping = true
	for i := 0; i < len(e.threads); i++ { // unwinding may spawn threads
		t := e.threads[i]
		if t.state == stateDone {
			continue
		}
		if t.w == nil {
			e.getWorker(t)
		}
		for t.state != stateDone {
			e.wait(t.w.at)
		}
	}
	for w := e.spare; w != nil; w = w.link {
		if w.at != w {
			e.wait(w.at)
		}
	}
	putWorkers(e.spare)
	e.spare = nil
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
	e.fastPath = true
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
