package sim

import (
	"iter"
	"sync"
)

// Thread bodies run on workers: a worker is a coroutine (iter.Pull)
// together with the goroutine the runtime started on it, which runs
// bodies one after another. A fresh coroutine costs a goroutine and
// about fifteen allocations, so workers are reused through a
// process-wide idle pool.
//
// The processor passes from goroutine to goroutine by coroutine
// switches, and the switch is symmetric: "if another goroutine calls
// coroswitch(c), the caller becomes the goroutine blocked in c"
// (runtime/coro.go). iter.Pull's next and yield both switch on the same
// coroutine and only check that calls alternate, so any goroutine
// resumes any other by calling whichever of the two is due on the
// coroutine where the other waits, and then waits there in its place.
// A thread giving up the processor thus resumes its successor itself,
// with one switch, and Run's caller waits like any thread until the run
// ends. Goroutines permute over coroutines during a run; the fields
// below record the permutation, and shutdown walks every worker back to
// its own coroutine before it rejoins the pool.

// A worker is a coroutine and the goroutine started on it. A worker in
// the idle pool waits at its own coroutine and references no engine or
// thread.
type worker struct {
	t        *Thread // the thread whose body runs next; nil while idle
	at       *worker // the coroutine the goroutine waits at (while it runs, the last one)
	yieldDue bool    // the next switch on this coroutine is a yield, not a next
	relay    *worker // where the goroutine resumed at this coroutine switches on next (see passGoexit)
	link     *worker // the next worker in an engine's spare list or the pool
	next     func() (struct{}, bool)
	yield    func(struct{}) bool
	stop     func()
}

// maxIdleWorkers caps the idle pool at the processor count of the
// largest machine the experiments simulate, so a warm pool serves any
// of them without creating coroutines. A worker returned to a full pool
// is stopped, ending its goroutine.
const maxIdleWorkers = 1024

var idle struct {
	sync.Mutex
	list *worker // linked through link
	n    int
}

// getWorker gives t a worker to run its body: a spare one of its
// engine, one from the idle pool, or a new one.
func (e *Engine) getWorker(t *Thread) {
	w := e.spare
	if w != nil {
		e.spare = w.link
	} else {
		idle.Lock()
		if w = idle.list; w != nil {
			idle.list = w.link
			idle.n--
		}
		idle.Unlock()
		if w == nil {
			w = new(worker)
			w.at = w
			w.next, w.stop = iter.Pull(w.loop)
		}
	}
	w.t, t.w = t, w
}

// putWorkers returns a list of idle workers, each waiting at its own
// coroutine, to the idle pool, and stops those it has no room for.
func putWorkers(list *worker) {
	idle.Lock()
	for list != nil && idle.n < maxIdleWorkers {
		w := list
		list = w.link
		w.link, idle.list = idle.list, w
		idle.n++
	}
	idle.Unlock()
	for ; list != nil; list = list.link {
		list.stop()
	}
}

// switchOn resumes the goroutine waiting at c's coroutine and leaves the
// calling goroutine, whose position *at records, waiting there in its
// place. Once resumed, it switches on again wherever a relay left at
// its coroutine says, then returns. It reports false if it was resumed
// because the coroutine's own goroutine ended.
func switchOn(at **worker, c *worker) bool {
	for {
		*at = c
		var ok bool
		if c.yieldDue {
			c.yieldDue = false
			ok = c.yield(struct{}{})
		} else {
			c.yieldDue = true
			_, ok = c.next()
		}
		relay := c.relay
		if relay == nil {
			return ok
		}
		c.relay, c = nil, relay
	}
}

// handoff gives the processor to next (nil: the earliest ready thread,
// or Run's caller once the run is over) with at most one coroutine
// switch, and returns once w's goroutine is resumed.
func (w *worker) handoff(e *Engine, next *Thread) {
	if u := e.dispatch(next); u == nil {
		switchOn(&w.at, e.callerAt)
	} else if u != w {
		switchOn(&w.at, u.at)
	}
}

// loop is the worker's coroutine body: run the assigned thread to
// completion, hand the processor on, and, once resumed, run the thread
// assigned next. An idle worker resumed elsewhere with no thread is
// being walked home by shutdown: it switches on its own coroutine,
// resuming the goroutine waiting there. Resumed at home with no thread,
// it was stopped.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for w.t != nil {
		e := w.t.engine
		w.run()
		w.handoff(e, nil)
		if w.t == nil && w.at != w {
			switchOn(&w.at, w)
		}
	}
}

// run runs w.t's body, unless its engine is already shutting down;
// Thread.finish recovers what the body panics. Exiting is a shared
// action — the last live thread's exit ends Run, and Engine.Now must
// include the final clock — so a body that returns with a Delay
// pending makes its check first, as its last Advance would have.
func (w *worker) run() {
	t := w.t
	defer t.finish()
	if !t.engine.stopping {
		t.fn(t)
		t.Sync()
	}
	t.fn = nil // returned: finish tells a runtime.Goexit by a body still set
}

// passGoexit runs on the goroutine of w, whose body called
// runtime.Goexit. Ending, the goroutine resumes the one waiting at its
// own coroutine, which must be Run's caller, to whom iter.Pull's next
// passes the Goexit on (Engine.wait does, if the caller switched there
// by a yield). If the caller waits elsewhere, at c, three switches put
// it in place: w's goroutine resumes the caller at c, the caller
// switches on w's coroutine, and the goroutine it resumes there
// resumes w's goroutine by taking its place at c.
func (e *Engine) passGoexit(w *worker) {
	if c := e.callerAt; c != w {
		c.relay, w.relay = w, c
		switchOn(&w.at, c)
	}
}
