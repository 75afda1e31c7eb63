package sim

import (
	"iter"
	"strings"
	"testing"
	"time"
)

// TestCoroutineSwitchIsSymmetric checks the one runtime property that
// dispatch rests on (worker.go): a goroutine that calls iter.Pull's
// next or yield on a coroutine that is not its own resumes whichever
// goroutine waits there, and takes its place. Three coroutines hand
// control round A→B→C→A: each goroutine, on its turn, resumes the next
// one by calling whichever of next and yield is due on the coroutine
// where that one waits. In the first round every call lands on another
// goroutine's coroutine (C resumes A by B's yield); after two rounds
// every goroutine is back at its own coroutine, and A hands control
// back to the test. A toolchain without the property fails here,
// within a timeout, by name.
func TestCoroutineSwitchIsSymmetric(t *testing.T) {
	const rounds = 2
	type coro struct {
		next     func() (struct{}, bool)
		yield    func(struct{}) bool
		stop     func()
		yieldDue bool
	}
	var (
		cs    [3]coro
		at    [4]int // the coroutine each goroutine waits at: A, B, C, then the test's
		order strings.Builder
		ended bool
	)
	switchOn := func(g, c int) {
		at[g] = c
		if cs[c].yieldDue {
			cs[c].yieldDue = false
			cs[c].yield(struct{}{})
		} else {
			cs[c].yieldDue = true
			cs[c].next()
		}
	}
	for i := range cs {
		at[i] = i
		cs[i].next, cs[i].stop = iter.Pull(func(yield func(struct{}) bool) {
			cs[i].yield = yield
			for !ended {
				order.WriteByte("ABC"[i])
				if order.Len() > 3*rounds {
					switchOn(i, at[3])
				} else {
					switchOn(i, at[(i+1)%3])
				}
			}
		})
	}
	done := make(chan [4]int)
	go func() {
		switchOn(3, 0)
		home := at
		ended = true
		for i := range cs {
			cs[i].stop() // resumes the goroutine at home there, which returns
		}
		done <- home
	}()
	select {
	case home := <-done:
		if got, want := order.String(), "ABCABCA"; got != want {
			t.Errorf("control passed in order %s, want %s", got, want)
		}
		if home != [4]int{0, 1, 2, 0} {
			t.Errorf("goroutines A, B, C and the test's ended at coroutines %v, want [0 1 2 0]", home)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("control never came back to the test")
	}
}
