package sim

import (
	"iter"
	"sync"
)

// A worker is a pulled coroutine (iter.Pull) that runs thread bodies,
// one after another: the engine loop resumes it with next, and the
// thread gives control back with yield, passing its successor (or nil).
// A fresh coroutine costs a goroutine and about fifteen allocations, so
// workers are reused through a process-wide idle pool; an idle worker
// references no engine or thread.
type worker struct {
	t     *Thread // the thread whose body runs next; nil while idle
	next  func() (*Thread, bool)
	stop  func()
	yield func(*Thread) bool
}

// maxIdleWorkers caps the idle pool at the processor count of the
// largest machine the experiments simulate, so a warm pool serves any
// of them without creating coroutines. A worker returned to a full pool
// is stopped, ending its goroutine.
const maxIdleWorkers = 1024

var idle struct {
	sync.Mutex
	workers []*worker
}

// getWorker gives t an idle worker, or a new one, to run its body.
func getWorker(t *Thread) {
	idle.Lock()
	var w *worker
	if n := len(idle.workers); n > 0 {
		w = idle.workers[n-1]
		idle.workers[n-1] = nil
		idle.workers = idle.workers[:n-1]
	}
	idle.Unlock()
	if w == nil {
		w = new(worker)
		w.next, w.stop = iter.Pull(w.loop)
	}
	w.t, t.w = t, w
}

// putWorker takes the worker of t, whose body has finished, back to the
// idle pool, or stops it if the pool is full.
func putWorker(t *Thread) {
	w := t.w
	w.t, t.w = nil, nil
	idle.Lock()
	full := len(idle.workers) == maxIdleWorkers
	if !full {
		idle.workers = append(idle.workers, w)
	}
	idle.Unlock()
	if full {
		w.stop()
	}
}

// loop is the worker's coroutine body: run the assigned thread to
// completion, report back, and wait to be assigned the next one.
func (w *worker) loop(yield func(*Thread) bool) {
	w.yield = yield
	for {
		w.run()
		if !yield(nil) {
			return // stopped while idle
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
}
