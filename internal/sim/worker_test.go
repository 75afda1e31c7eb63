package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// idleWorkers reports the idle pool's size.
func idleWorkers() int {
	idle.Lock()
	defer idle.Unlock()
	return len(idle.workers)
}

// TestWorkersDoNotLeak runs engines that end in every way an engine
// can — normally, halted by a thread panic (leaving a thread never
// dispatched), shut down with a runnable or a blocked daemon,
// deadlocked — plus one with more live threads than the idle pool
// holds, and checks that every goroutine they started is either an
// idle worker or gone.
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
	// Fewer goroutines than expected is fine: one that was exiting when
	// the test began (an earlier test's) may be gone by now.
	g, n := runtime.NumGoroutine(), idleWorkers()
	if leaked := (g - g0) - (n - idle0); leaked > 0 {
		t.Errorf("goroutines grew by %d but idle workers by %d: %d leaked", g-g0, n-idle0, leaked)
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
// the race detector sees them share the idle worker pool.
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
			}
		}()
	}
	wg.Wait()
}
