package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// idleWorkers reports the idle pool's size.
func idleWorkers() int {
	idle.Lock()
	defer idle.Unlock()
	return idle.n
}

// checkPool fails t unless every pooled worker is idle and waits at its
// own coroutine, with no relay left there, and the pool counts its
// workers right.
func checkPool(t *testing.T, when string) {
	t.Helper()
	idle.Lock()
	defer idle.Unlock()
	n := 0
	for w := idle.list; w != nil; w = w.link {
		if w.at != w || w.t != nil || w.relay != nil {
			t.Errorf("%s: pooled worker %d does not wait idle at its own coroutine", when, n)
		}
		n++
	}
	if n != idle.n {
		t.Errorf("%s: the pool counts %d workers but lists %d", when, idle.n, n)
	}
}

// TestWorkersDoNotLeak runs engines that end in every way an engine
// can — normally, halted by a thread panic (leaving a thread never
// dispatched), shut down with a runnable or a blocked daemon,
// deadlocked — plus one with more live threads than the idle pool
// holds, and checks that every goroutine they started is either an
// idle worker or gone, and that after each run every pooled worker
// waits at its own coroutine.
func TestWorkersDoNotLeak(t *testing.T) {
	g0, idle0 := runtime.NumGoroutine(), idleWorkers()
	for i := 0; i < 300; i++ {
		e := NewEngine()
		for j := 0; j < 1+i%5; j++ {
			e.Spawn("w", func(th *Thread) { th.Advance(Time(10 + j)) })
		}
		var want error
		switch i % 5 {
		case 1:
			e.Spawn("bad", func(th *Thread) {
				th.Advance(3)
				e.Spawn("orphan", func(*Thread) { t.Error("orphan ran after the machine halted") })
				panic("fatal trap")
			})
			want = &ThreadPanicError{Thread: "bad", Value: "fatal trap"}
		case 2:
			e.Spawn("daemon", func(th *Thread) {
				for {
					th.Advance(7)
				}
			}).SetDaemon(true)
		case 3:
			e.Spawn("daemon", func(th *Thread) { th.Block() }).SetDaemon(true)
		case 4:
			e.Spawn("stuck", func(th *Thread) { th.Block() })
			want = ErrDeadlock
		}
		if err := e.Run(); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("engine %d: Run = %v, want %v", i, err, want)
		}
		checkPool(t, fmt.Sprintf("engine %d", i))
		e.Reset() // panics unless every thread finished
	}

	e := NewEngine()
	for j := 0; j < maxIdleWorkers+8; j++ {
		e.Spawn("w", func(th *Thread) { th.Advance(1) }) // all live at once
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n := idleWorkers(); n != maxIdleWorkers {
		t.Errorf("idle workers after %d live threads = %d, want the cap %d", maxIdleWorkers+8, n, maxIdleWorkers)
	}
	checkPool(t, "more live threads than the pool holds")
	// Fewer goroutines than expected is fine: one that was exiting when
	// the test began (an earlier test's) may be gone by now.
	g, n := runtime.NumGoroutine(), idleWorkers()
	if leaked := (g - g0) - (n - idle0); leaked > 0 {
		t.Errorf("goroutines grew by %d but idle workers by %d: %d leaked", g-g0, n-idle0, leaked)
	}
}

// TestShutdownFinishesLateSpawn checks that a thread spawned while
// shutdown unwinds another (a deferred Spawn in a body cut short by a
// deadlock or by another body's panic) finishes without running its
// body, so Reset finds every thread done and every worker goes home.
func TestShutdownFinishesLateSpawn(t *testing.T) {
	for _, ending := range []string{"deadlock", "panic"} {
		e := NewEngine()
		late := false
		e.Spawn("stuck", func(th *Thread) {
			defer e.Spawn("late", func(*Thread) { late = true })
			th.Block()
		})
		want := error(ErrDeadlock)
		if ending == "panic" {
			e.Spawn("bad", func(th *Thread) {
				th.Advance(1)
				panic("fatal trap")
			})
			want = &ThreadPanicError{Thread: "bad", Value: "fatal trap"}
		}
		if err := e.Run(); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s: Run = %v, want %v", ending, err, want)
		}
		if late {
			t.Errorf("%s: the thread spawned during shutdown ran its body", ending)
		}
		checkPool(t, ending)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Reset after the run: %v", ending, r)
				}
			}()
			e.Reset()
		}()
	}
}

// TestWorkerReusedAfterPanic checks that the worker whose thread body
// panicked goes back to the idle pool and runs the next engine's
// thread.
func TestWorkerReusedAfterPanic(t *testing.T) {
	var panicked, reused *worker
	e := NewEngine()
	e.Spawn("bad", func(th *Thread) {
		panicked = th.w
		panic("fatal trap")
	})
	var pe *ThreadPanicError
	if err := e.Run(); !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want ThreadPanicError", err)
	}
	e = NewEngine()
	e.Spawn("next", func(th *Thread) { reused = th.w })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reused != panicked {
		t.Error("the next engine's thread did not run on the worker whose body panicked")
	}
}

// TestConcurrentEngines runs engines on several goroutines at once, so
// the race detector sees them share the idle worker pool: a fixed
// lockstep engine, and random ones whose threads block and are
// unblocked, each run twice to check that it dispatches the same way
// on whichever workers it gets.
func TestConcurrentEngines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e := NewEngine()
				for j := 0; j < 8; j++ {
					e.Spawn("w", func(th *Thread) {
						th.Advance(Time(1 + j))
						th.Advance(3)
					})
				}
				if err := e.Run(); err != nil || e.Now() != 11 {
					t.Errorf("Run = %v at %v, want nil at 11ns", err, e.Now())
					return
				}
				seed := int64(100*g + i)
				trace, now, err := randomRun(seed)
				trace2, now2, err2 := randomRun(seed)
				if err != nil || err2 != nil || now != now2 || !slices.Equal(trace, trace2) {
					t.Errorf("seed %d: runs differ: %v at %v and %v at %v, traces %v and %v",
						seed, err, now, err2, now2, trace, trace2)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkPool(t, "after concurrent engines")
}

// randomRun runs an engine of 1 to 12 threads drawn from seed. Each
// thread takes a few random steps, and about a third of them block
// once, to be unblocked by a waker thread that runs until it has woken
// all of them. It returns the ids of the threads in the order they
// finished their steps, and how the run ended.
func randomRun(seed int64) (trace []int, now Time, err error) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var sleepers []*Thread
	for n := 1 + rng.Intn(12); n > 0; n-- {
		steps := make([]Time, 1+rng.Intn(6))
		for k := range steps {
			steps[k] = Time(rng.Intn(20))
		}
		blockAt := -1
		if rng.Intn(3) == 0 {
			blockAt = rng.Intn(len(steps))
		}
		th := e.Spawn("w", func(th *Thread) {
			for k, d := range steps {
				if k == blockAt {
					th.Block()
				}
				th.Advance(d)
				trace = append(trace, th.ID())
			}
		})
		if blockAt >= 0 {
			sleepers = append(sleepers, th)
		}
	}
	e.Spawn("waker", func(th *Thread) {
		for woken := 0; woken < len(sleepers); {
			th.Advance(Time(1 + rng.Intn(10)))
			for _, s := range sleepers {
				if s.Unblock(th.Now()) {
					woken++
				}
			}
		}
	})
	err = e.Run()
	return trace, e.Now(), err
}

// TestGoexitInBody checks that a body's runtime.Goexit ends Run's
// caller, as iter.Pull's next does for a coroutine that calls it:
// three threads take turns, c calls runtime.Goexit on its first,
// second or third step, and the run stops there. Afterwards a fresh engine runs normally,
// and no goroutine is left behind but pooled workers.
func TestGoexitInBody(t *testing.T) {
	g0, idle0 := runtime.NumGoroutine(), idleWorkers()
	run := func(exitAt int) (order string, returned bool) {
		var names []string
		e := NewEngine()
		for _, name := range []string{"a", "b", "c"} {
			e.Spawn(name, func(th *Thread) {
				for step := 1; step <= 3; step++ {
					if name == "c" && step == exitAt {
						runtime.Goexit()
					}
					names = append(names, name)
					th.Advance(1)
				}
			})
		}
		done := make(chan bool)
		go func() {
			ok := false
			defer func() { done <- ok }()
			if err := e.Run(); err != nil {
				t.Errorf("Run = %v", err)
			}
			ok = true
		}()
		select {
		case returned = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run's caller neither returned nor exited")
		}
		return strings.Join(names, " "), returned
	}
	// Exiting on its first, second or third step, c leaves Run's caller
	// waiting at c's coroutine by a next, at another coroutine, and at
	// one where a yield is due.
	all := strings.Fields("a b c a b c a b c")
	for exitAt := 1; exitAt <= 3; exitAt++ {
		want := strings.Join(all[:3*exitAt-1], " ")
		if order, returned := run(exitAt); returned || order != want {
			t.Errorf("Goexit on c's step %d: order %q, Run returned %v; want %q and its caller ended by the Goexit",
				exitAt, order, returned, want)
		}
	}
	if order, returned := run(0); !returned || order != "a b c a b c a b c" {
		t.Errorf("fresh engine after the Goexit: order %q, Run returned %v; want %q and a return",
			order, returned, "a b c a b c a b c")
	}
	// The goroutine that called Run may still be on its way out.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		g, n := runtime.NumGoroutine(), idleWorkers()
		if g-g0 <= n-idle0 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines grew by %d but idle workers by %d", g-g0, n-idle0)
			break
		}
	}
}
