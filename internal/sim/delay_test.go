package sim

import (
	"fmt"
	"strings"
	"testing"
)

// pureWorkload runs a thread ("ahead") whose Unblock, Spawn and exit
// each follow a pure step, while lower-clock threads ("behind", a
// daemon) act inside that step. It returns the trace of the other
// shared steps, each with the thread's and the engine's clock.
func pureWorkload(pure func(*Thread, Time)) ([]string, error) {
	e := NewEngine()
	var trace []string
	note := func(th *Thread) {
		th.Sync()
		trace = append(trace, fmt.Sprintf("%s@%d/%d", th.Name(), th.Now(), e.Now()))
	}
	sleeper := e.Spawn("sleeper", func(th *Thread) {
		th.Block()
		note(th)
	})
	// Every 30 ns until the last live thread exits: a lower-clock
	// thread throughout.
	daemon := e.Spawn("daemon", func(th *Thread) {
		for {
			pure(th, 30)
			note(th)
		}
	})
	daemon.SetDaemon(true)
	e.Spawn("ahead", func(th *Thread) {
		pure(th, 100)
		sleeper.Unblock(th.Now()) // too late: "behind" woke it at 50
		pure(th, 100)
		e.Spawn("child", note) // starts at 200, after "behind" at 140
		pure(th, 85)           // exits at 285, after the daemon at 270
	})
	e.Spawn("behind", func(th *Thread) {
		pure(th, 50)
		sleeper.Unblock(th.Now())
		pure(th, 90)
		note(th)
	})
	err := e.Run()
	return trace, err
}

// TestDelayThenSharedStepWaitsForLowerClocks checks Unblock, Spawn and
// thread exit each make the pending check of a Delay first: a thread
// that has run ahead on a Delay lets every lower-clock thread act
// before it wakes a thread, spawns one or ends the run, exactly as
// with Advance.
func TestDelayThenSharedStepWaitsForLowerClocks(t *testing.T) {
	ref, err := pureWorkload((*Thread).Advance)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	want := "daemon@30/30 sleeper@50/50 daemon@60/60 daemon@90/90 daemon@120/120 " +
		"behind@140/140 daemon@150/150 daemon@180/180 child@200/200 daemon@210/210 " +
		"daemon@240/240 daemon@270/270"
	if strings.Join(ref, " ") != want {
		t.Fatalf("Advance trace\n%v\nwant\n%v", strings.Join(ref, " "), want)
	}
	got, err := pureWorkload((*Thread).Delay)
	if err != nil {
		t.Fatalf("Delay: %v", err)
	}
	if strings.Join(got, " ") != want {
		t.Fatalf("Delay trace\n%v\nwant\n%v", strings.Join(got, " "), want)
	}
}

// TestBlockWithPendingDelayPanics checks a Block with a Delay pending —
// a shared step with no Sync before it — halts the machine.
func TestBlockWithPendingDelayPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("unsynced", func(th *Thread) {
		th.Delay(5)
		th.Block()
	})
	err := e.Run()
	var pe *ThreadPanicError
	if !errorsAs(err, &pe) {
		t.Fatalf("Run = %v, want ThreadPanicError", err)
	}
	if msg := fmt.Sprint(pe.Value); !strings.Contains(msg, "missing Sync") {
		t.Fatalf("panic = %q, want a missing-Sync report", msg)
	}
}

// TestDelayBanksAndDefersEngineClock checks Delay charges like Advance
// (clock, account) but leaves the engine clock to the next Sync.
func TestDelayBanksAndDefersEngineClock(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(th *Thread) {
		th.BindNode(0)
		th.Delay(40)
		if th.Now() != 40 || e.Now() != 0 {
			t.Errorf("after Delay: thread %d, engine %d; want 40, 0", th.Now(), e.Now())
		}
		th.Sync()
		if e.Now() != 40 {
			t.Errorf("after Sync: engine %d, want 40", e.Now())
		}
		a := e.NodeAccounts()[0]
		if c := th.Now(); c != 40 || a.Total() != c {
			t.Errorf("consumed %d, account %d; want 40 both", c, a.Total())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
