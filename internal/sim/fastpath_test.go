package sim

import (
	"fmt"
	"strings"
	"testing"
)

// traceWorkload runs a mixed workload (advances, yields, block/unblock,
// mid-run spawns, a daemon) and returns the finished engine and the
// observed dispatch trace. pure consumes time between the shared steps
// (the trace appends, unblocks and spawns): Advance, or Delay, whose
// check each shared step's Sync makes.
func traceWorkload(fastPath bool, pure func(*Thread, Time)) (*Engine, []string, error) {
	e := NewEngine()
	e.SetFastPath(fastPath)
	var trace []string
	note := func(th *Thread) {
		th.Sync()
		trace = append(trace, fmt.Sprintf("%s@%d/%d", th.Name(), th.Now(), e.Now()))
	}

	var blocked *Thread
	daemon := e.Spawn("daemon", func(th *Thread) {
		for {
			pure(th, 70)
			note(th)
		}
	})
	daemon.SetDaemon(true)
	blocked = e.Spawn("sleeper", func(th *Thread) {
		th.Block()
		note(th)
		pure(th, 5)
		note(th)
	})
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(th *Thread) {
			for j := 0; j < 6; j++ {
				pure(th, Time(10*i+13*j))
				note(th)
				if i == 1 && j == 3 {
					blocked.Unblock(th.Now())
				}
				if i == 2 && j == 2 {
					e.Spawn("late", func(lt *Thread) {
						pure(lt, 9)
						note(lt)
					})
				}
				pure(th, 0) // a yield
			}
		})
	}
	err := e.Run()
	return e, trace, err
}

// TestFastPathDeterminism checks the scheduler fast path and the
// deferred dispatch check are purely execution optimizations: the
// dispatch trace is identical with the fast path on or off and with
// the workload's pure steps taken by Advance or by Delay. It also pins
// every mode's scheduler counters, which bench/ hashes into its
// simulation digest; Delay resumes threads less often than Advance.
func TestFastPathDeterminism(t *testing.T) {
	var ref []string
	for _, c := range []struct {
		mode       string
		fastPath   bool
		pure       func(*Thread, Time)
		fast, slow int64
	}{
		{"off", false, (*Thread).Advance, 0, 63},
		{"on", true, (*Thread).Advance, 25, 38},
		{"off, Delay", false, (*Thread).Delay, 0, 43},
		{"on, Delay", true, (*Thread).Delay, 7, 36},
	} {
		e, trace, err := traceWorkload(c.fastPath, c.pure)
		if err != nil {
			t.Fatalf("fast path %s: %v", c.mode, err)
		}
		if f, s := e.Stats(); f != c.fast || s != c.slow {
			t.Errorf("fast path %s: Stats() = (%d, %d), want (%d, %d)", c.mode, f, s, c.fast, c.slow)
		}
		if ref == nil {
			ref = trace
			continue
		}
		if strings.Join(trace, " ") != strings.Join(ref, " ") {
			t.Fatalf("fast path %s: trace\n%v\ndiffers from fast path off's\n%v", c.mode, trace, ref)
		}
	}
}

// TestFastPathStats checks the fast path actually engages: a lone thread
// advancing repeatedly should need no handoffs beyond its own dispatch.
func TestFastPathStats(t *testing.T) {
	e := NewEngine()
	e.SetFastPath(true)
	e.Spawn("solo", func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Advance(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fast, slowSteps := e.Stats()
	if fast < 100 {
		t.Errorf("fastSteps = %d, want >= 100", fast)
	}
	if slowSteps != 1 {
		t.Errorf("slowSteps = %d, want 1 (the initial dispatch)", slowSteps)
	}
}

// TestPushReadyNoDuplicate checks a thread already resident in the ready
// heap is not enqueued twice: its position is fixed up instead, and the
// non-daemon ready count stays consistent.
func TestPushReadyNoDuplicate(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(*Thread) {})
	b := e.Spawn("b", func(*Thread) {})
	if got := e.ready.len(); got != 2 {
		t.Fatalf("heap len after two spawns = %d, want 2", got)
	}
	if e.readyND != 2 {
		t.Fatalf("readyND = %d, want 2", e.readyND)
	}

	// Re-pushing a resident thread must not grow the heap or the count.
	e.pushReady(a)
	e.pushReady(b)
	e.pushReady(a)
	if got := e.ready.len(); got != 2 {
		t.Fatalf("heap len after duplicate pushes = %d, want 2", got)
	}
	if e.readyND != 2 {
		t.Fatalf("readyND after duplicate pushes = %d, want 2", e.readyND)
	}

	// A duplicate push with a changed clock re-sorts in place.
	a.clock, b.clock = 100, 50
	e.pushReady(a)
	e.pushReady(b)
	if top := e.ready.peek(); top != b {
		t.Fatalf("heap top = %q, want %q after clock change", top.name, b.name)
	}
	if e.ready.len() != 2 {
		t.Fatalf("heap len after fix-up pushes = %d, want 2", e.ready.len())
	}

	// The threads must each still be dispatched exactly once.
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, slowSteps := e.Stats()
	if slowSteps != 2 {
		t.Errorf("slowSteps = %d, want 2 (one dispatch per thread)", slowSteps)
	}
}

// TestReplaceTop checks the fused handoff's heap primitive matches
// push-then-pop when the incoming key orders after the minimum.
func TestReplaceTop(t *testing.T) {
	e := NewEngine()
	threads := make([]*Thread, 5)
	for i := range threads {
		threads[i] = &Thread{id: i, clock: Time(10 * (i + 1)), heapIdx: -1}
	}
	for _, th := range threads[:4] {
		e.ready.push(th)
	}
	incoming := threads[4] // clock 50, orders after every resident thread
	got := e.ready.replaceTop(incoming)
	if got != threads[0] {
		t.Fatalf("replaceTop returned id %d, want id 0", got.id)
	}
	if got.heapIdx != -1 {
		t.Fatalf("popped thread heapIdx = %d, want -1", got.heapIdx)
	}
	want := []Time{20, 30, 40, 50}
	for _, w := range want {
		th := e.ready.pop()
		if th == nil || th.clock != w {
			t.Fatalf("pop clock = %v, want %v", th.clock, w)
		}
	}
	if e.ready.len() != 0 {
		t.Fatalf("heap not empty after draining")
	}
}
