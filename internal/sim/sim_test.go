package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleThreadAdvances(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("a", func(th *Thread) {
		th.Advance(100)
		th.Advance(250)
		end = th.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 350 {
		t.Fatalf("thread clock = %d, want 350", end)
	}
	if e.Now() != 350 {
		t.Fatalf("engine clock = %d, want 350", e.Now())
	}
}

func TestThreadsInterleaveInClockOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("slow", func(th *Thread) {
		th.Advance(100)
		order = append(order, "slow@100")
		th.Advance(100)
		order = append(order, "slow@200")
	})
	e.Spawn("fast", func(th *Thread) {
		th.Advance(50)
		order = append(order, "fast@50")
		th.Advance(100)
		order = append(order, "fast@150")
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"fast@50", "slow@100", "fast@150", "slow@200"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualClockTiebreakBySpawnOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("t", func(th *Thread) {
			th.Advance(10)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending spawn order", order)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine()
	var waiter *Thread
	var wakeTime Time
	waiter = e.Spawn("waiter", func(th *Thread) {
		th.Advance(10)
		th.Block()
		wakeTime = th.Now()
	})
	e.Spawn("waker", func(th *Thread) {
		th.Advance(500)
		waiter.Unblock(th.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wakeTime != 500 {
		t.Fatalf("waiter woke at %d, want 500", wakeTime)
	}
}

func TestUnblockNotBlockedIsNoop(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(th *Thread) { th.Advance(1) })
	e.Spawn("b", func(th *Thread) {
		if a.Unblock(0) {
			t.Error("Unblock of ready thread reported true")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(th *Thread) {
		th.Block() // nobody will ever unblock this
	})
	if err := e.Run(); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestDeadlockDetectedWithLiveDaemon(t *testing.T) {
	e := NewEngine()
	d := e.Spawn("daemon", func(th *Thread) {
		for {
			th.Advance(1000)
		}
	})
	d.SetDaemon(true)
	e.Spawn("stuck", func(th *Thread) {
		th.Advance(5)
		th.Block()
	})
	if err := e.Run(); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
}

func TestDaemonDoesNotKeepEngineAlive(t *testing.T) {
	e := NewEngine()
	ticks := 0
	d := e.Spawn("daemon", func(th *Thread) {
		for {
			th.Advance(10)
			ticks++
		}
	})
	d.SetDaemon(true)
	e.Spawn("worker", func(th *Thread) {
		th.Advance(100)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Daemon should have ticked while the worker ran, but Run returned.
	if ticks == 0 {
		t.Fatal("daemon never ran")
	}
	if ticks > 11 {
		t.Fatalf("daemon ran %d ticks after workers finished", ticks)
	}
}

func TestSpawnFromInsideThread(t *testing.T) {
	e := NewEngine()
	var childEnd Time
	e.Spawn("parent", func(th *Thread) {
		th.Advance(100)
		e.Spawn("child", func(c *Thread) {
			if c.Now() != 100 {
				t.Errorf("child started at %d, want 100", c.Now())
			}
			c.Advance(50)
			childEnd = c.Now()
		})
		th.Advance(10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if childEnd != 150 {
		t.Fatalf("child ended at %d, want 150", childEnd)
	}
}

func TestAdvanceToAndYield(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(th *Thread) {
		th.Advance(10)
		th.AdvanceTo(100)
		if th.Now() != 100 {
			t.Errorf("AdvanceTo(100) left clock at %d", th.Now())
		}
		th.AdvanceTo(50) // already past: no-op in time
		if th.Now() != 100 {
			t.Errorf("AdvanceTo(50) moved clock to %d", th.Now())
		}
		th.Yield()
		if th.Now() != 100 {
			t.Errorf("Yield moved clock to %d", th.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	e := NewEngine()
	panicked := false
	e.Spawn("a", func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		th.Advance(-1)
	})
	// The panic is recovered inside the thread body, so Run succeeds.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !panicked {
		t.Fatal("negative Advance did not panic")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{5 * Microsecond, "5.000µs"},
		{1340 * Microsecond, "1.340ms"},
		{2 * Second, "2.000s"},
		{0, "0ns"},
		{-500, "-500ns"},
		{-100 * Microsecond, "-100.000µs"},
		{-1340 * Microsecond, "-1.340ms"},
		{-2 * Second, "-2.000s"},
		{math.MinInt64, "-9223372036.855s"},
		{math.MaxInt64, "9223372036.855s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// TestDeterminism runs the same mildly chaotic workload twice and checks
// the event traces are identical.
func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var trace []Time
		for i := 0; i < 16; i++ {
			step := Time(i%5 + 1)
			e.Spawn("w", func(th *Thread) {
				for j := 0; j < 50; j++ {
					th.Advance(step * Time(j%7+1))
					trace = append(trace, th.Now())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: engine time never decreases across dispatches, and every
// thread's clock is monotonically non-decreasing.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(steps []uint16) bool {
		if len(steps) == 0 {
			return true
		}
		e := NewEngine()
		ok := true
		nthreads := len(steps)%8 + 1
		for i := 0; i < nthreads; i++ {
			i := i
			e.Spawn("w", func(th *Thread) {
				last := th.Now()
				for j, s := range steps {
					if (j+i)%nthreads != 0 {
						continue
					}
					th.Advance(Time(s))
					if th.Now() < last {
						ok = false
					}
					last = th.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with n threads each advancing k times by d, the final engine
// clock equals k*d (threads run in lockstep, max clock = k*d).
func TestPropertyLockstepFinalClock(t *testing.T) {
	f := func(n, k, d uint8) bool {
		nt, kt, dt := int(n%8)+1, int(k%16)+1, Time(d)+1
		e := NewEngine()
		for i := 0; i < nt; i++ {
			e.Spawn("w", func(th *Thread) {
				for j := 0; j < kt; j++ {
					th.Advance(dt)
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return e.Now() == Time(kt)*dt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapOrdering(t *testing.T) {
	var h threadHeap
	clocks := []Time{5, 3, 8, 1, 9, 2, 2, 7}
	for i, c := range clocks {
		h.push(&Thread{id: i, clock: c, state: stateReady})
	}
	var prev *Thread
	for {
		th := h.pop()
		if th == nil {
			break
		}
		if prev != nil {
			if th.clock < prev.clock ||
				(th.clock == prev.clock && th.id < prev.id) {
				t.Fatalf("heap out of order: (%d,%d) after (%d,%d)",
					th.clock, th.id, prev.clock, prev.id)
			}
		}
		prev = th
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after draining")
	}
}

func TestThreadPanicBecomesRunError(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(th *Thread) {
		th.Advance(10)
		panic("fatal trap")
	})
	survived := false
	e.Spawn("other", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(5)
		}
		survived = true
	})
	err := e.Run()
	var pe *ThreadPanicError
	if !errorsAs(err, &pe) {
		t.Fatalf("Run = %v, want ThreadPanicError", err)
	}
	if pe.Thread != "bad" || pe.Value != "fatal trap" {
		t.Fatalf("error = %+v", pe)
	}
	if survived {
		t.Error("other thread ran to completion after the machine halted")
	}
}

// errorsAs avoids importing errors in this file's header churn.
func errorsAs(err error, target *(*ThreadPanicError)) bool {
	for err != nil {
		if pe, ok := err.(*ThreadPanicError); ok {
			*target = pe
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
