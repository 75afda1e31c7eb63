package exp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// A pool runs queued jobs on a fixed set of workers, costliest first,
// so that no long run starts last and leaves the other workers idle
// behind it. Outside a suite, a forEach call with more than one worker
// gets a pool of its own; RunSuite gives all its experiments one pool,
// whose slots they share.
type pool struct {
	mu     sync.Mutex
	ready  sync.Cond // signalled when tasks are queued or the pool closes
	queue  []task    // the next task first
	closed bool
	done   sync.WaitGroup // the workers

	// memo holds each run a suite simulates under its spec with fresh
	// cleared, so that equal specs are simulated once (see runShared).
	memo map[runSpec]*sharedRun

	// key ranks a task: the highest goes first, and equal keys in queue
	// order. Nil ranks by cost; tests swap in other orders to show that
	// the order never moves a table byte.
	key func(task) float64
}

// A task is job i of one forEach call's batch.
type task struct {
	cost float64
	b    *batch
	i    int
}

type batch struct {
	job      func(i int) error
	errs     []error
	progress *Progress
	left     sync.WaitGroup
}

// A sharedRun is one simulation of a suite, read by every spec equal to
// its own but for fresh.
type sharedRun struct {
	done chan struct{} // closed once res and err are set
	res  runResult
	err  error
}

func newPool(workers int) *pool {
	p := &pool{}
	p.ready.L = &p.mu
	p.done.Add(workers)
	for range workers {
		go p.work()
	}
	return p
}

// close waits for the workers to empty the queue and exit.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.ready.Broadcast()
	p.done.Wait()
}

func (p *pool) work() {
	defer p.done.Done()
	p.mu.Lock()
	for len(p.queue) > 0 || !p.closed {
		if len(p.queue) == 0 {
			p.ready.Wait()
			continue
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		t.b.errs[t.i] = t.b.job(t.i)
		t.b.progress.RunDone()
		t.b.left.Done()
		p.mu.Lock()
	}
	p.mu.Unlock()
}

// run queues jobs 0..n-1, job i at cost(i) (all equal if cost is nil),
// waits for all of them and returns the lowest-index error.
func (p *pool) run(progress *Progress, n int, cost func(i int) float64, job func(i int) error) error {
	b := &batch{job: job, errs: make([]error, n), progress: progress}
	b.left.Add(n)
	tasks := make([]task, n)
	for i := range tasks {
		tasks[i] = task{b: b, i: i}
		if cost != nil {
			tasks[i].cost = cost(i)
		}
	}
	key := p.key
	if key == nil {
		key = func(t task) float64 { return t.cost }
	}
	p.mu.Lock()
	p.queue = append(p.queue, tasks...)
	slices.SortStableFunc(p.queue, func(x, y task) int { return cmp.Compare(key(y), key(x)) })
	p.mu.Unlock()
	p.ready.Broadcast()
	b.left.Wait()
	for _, err := range b.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runShared runs specs on a suite's pool into res. A spec the suite has
// not met before, with fresh cleared, is simulated as one job; one it
// has met waits for that simulation without taking a slot. The error is
// the first failed spec's in spec order.
func (p *pool) runShared(progress *Progress, specs []runSpec, res []runResult) error {
	runs := make([]*sharedRun, len(specs))
	var mine []int // the specs this call simulates
	p.mu.Lock()
	if p.memo == nil {
		p.memo = make(map[runSpec]*sharedRun)
	}
	for i, s := range specs {
		s.fresh = false
		if runs[i] = p.memo[s]; runs[i] == nil {
			runs[i] = &sharedRun{done: make(chan struct{})}
			p.memo[s] = runs[i]
			mine = append(mine, i)
		}
	}
	p.mu.Unlock()
	p.run(progress, len(mine), func(j int) float64 { return specs[mine[j]].cost() }, func(j int) error {
		r := runs[mine[j]]
		r.res, r.err = run(specs[mine[j]])
		close(r.done)
		return nil
	})
	for i, r := range runs {
		<-r.done
		if r.err != nil {
			return fmt.Errorf("exp: %v: %w", specs[i], r.err)
		}
		res[i] = r.res
	}
	return nil
}
