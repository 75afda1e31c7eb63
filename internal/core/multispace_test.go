package core

import (
	"errors"
	"fmt"
	"testing"

	"platinum/internal/sim"
)

// Tests for the multi-address-space behaviour of §3.1: "a change of
// mappings required by the data coherency protocol must affect every
// address space in which the Cpage is mapped."

// twoSpaceFixture maps one coherent page into two address spaces.
type twoSpaceFixture struct {
	*fixture
	cm2 *Cmap
	cp  *Cpage
}

func newTwoSpaceFixture(t *testing.T) *twoSpaceFixture {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	cm2 := fx.s.NewCmap()
	for p := 0; p < fx.m.Nodes(); p++ {
		cm2.Activate(nil, p)
	}
	if _, err := cm2.Enter(7, cp, Read|Write); err != nil {
		t.Fatalf("Enter in second space: %v", err)
	}
	return &twoSpaceFixture{fixture: fx, cm2: cm2, cp: cp}
}

func TestShootdownCrossesAddressSpaces(t *testing.T) {
	fx := newTwoSpaceFixture(t)
	fx.run(func(th *sim.Thread) {
		// Space 1, proc 0 reads; space 2, proc 1 reads via its own
		// mapping (vpn 7): two copies, two spaces.
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		if _, err := fx.s.Touch(th, 1, fx.cm2, 7, false); err != nil {
			panic(err)
		}
		if len(fx.cp.Copies()) != 2 {
			panic(fmt.Sprintf("copies = %d, want 2", len(fx.cp.Copies())))
		}
		// A write through space 1 must invalidate space 2's translation.
		fx.touch(th, 0, 0, true)
		if _, ok := fx.cm2.translation(1, 7); ok {
			t.Error("space 2's translation survived a space-1 write reclaim")
		}
		if len(fx.cp.Copies()) != 1 {
			t.Errorf("copies = %d after reclaim, want 1", len(fx.cp.Copies()))
		}
	})
}

func TestCrossSpaceDataVisibility(t *testing.T) {
	fx := newTwoSpaceFixture(t)
	fx.run(func(th *sim.Thread) {
		c, err := fx.s.Resolve(th, 2, fx.cm2, 7, true, func(w []uint32) { w[0] = 31337 })
		if err != nil {
			panic(err)
		}
		_ = c
		th.Advance(quiet)
		var got uint32
		if _, err := fx.s.Resolve(th, 5, fx.cm, 0, false, func(w []uint32) { got = w[0] }); err != nil {
			panic(err)
		}
		if got != 31337 {
			t.Errorf("space 1 read %d through shared page, want 31337", got)
		}
	})
}

func TestInactiveSecondSpaceGetsQueuedMessage(t *testing.T) {
	fx := newTwoSpaceFixture(t)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		if _, err := fx.s.Touch(th, 1, fx.cm2, 7, false); err != nil {
			panic(err)
		}
		// Space 2's only user goes inactive.
		fx.cm2.Deactivate(1)
		fx.touch(th, 0, 0, true) // reclaim space 2's copy
		if fx.cm2.PendingMessages() == 0 {
			panic("no message queued for inactive space-2 processor")
		}
		fx.cm2.Activate(th, 1)
		if _, ok := fx.cm2.translation(1, 7); ok {
			t.Error("stale translation survived activation")
		}
	})
}

// TestActivateFollowsEarlierShootdown pins the order of an activation
// taken right after a word access: a (proc 2) reads the page, goes
// inactive, streams 100 words from module 5 and reactivates, while b
// (proc 1) writes the page inside a's stream. b's shootdown finds proc
// 2 inactive and queues a message, which a's activation then applies.
func TestActivateFollowsEarlierShootdown(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	var streamStart, streamEnd, wrote, activated sim.Time
	fx.e.Spawn("a", func(th *sim.Thread) {
		fx.touch(th, 2, 0, false)
		if err := fx.cm.Deactivate(2); err != nil {
			t.Error(err)
		}
		streamStart = th.Now()
		fx.m.Access(th, 2, 5, 100, false)
		streamEnd = th.Now()
		fx.cm.Activate(th, 2)
		activated = th.Now()
	})
	fx.e.Spawn("b", func(th *sim.Thread) {
		th.Advance(300 * sim.Microsecond)
		wrote = th.Now()
		fx.touch(th, 1, 0, true)
	})
	if err := fx.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wrote <= streamStart || wrote >= streamEnd {
		t.Fatalf("b writes at %v, outside a's stream [%v, %v)", wrote, streamStart, streamEnd)
	}
	if got, want := activated-streamEnd, msgApply; got != want {
		t.Errorf("activation cost %v, want one message applied (%v)", got, want)
	}
	if n := fx.cm.PendingMessages(); n != 0 {
		t.Errorf("%d messages still queued after activation", n)
	}
}

func TestCmapRemoveInvalidatesEverywhere(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		if err := fx.cm.Remove(th, 0, 0); err != nil {
			panic(fmt.Sprintf("Remove: %v", err))
		}
		// All translations gone; further access is an unmapped fault.
		_, err := fx.s.Touch(th, 1, fx.cm, 0, false)
		var um *ErrUnmapped
		if !errors.As(err, &um) {
			panic(fmt.Sprintf("post-remove access: %v, want ErrUnmapped", err))
		}
		// The page's copies survive (the object still exists), but no
		// mapper remains.
		if len(cp.mappers) != 0 {
			t.Errorf("mappers = %d after Remove, want 0", len(cp.mappers))
		}
	})
	if err := fx.s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCmapRemoveErrors(t *testing.T) {
	fx := newFixture(t, nil)
	fx.run(func(th *sim.Thread) {
		if err := fx.cm.Remove(th, 0, 99); err == nil {
			t.Error("Remove of unmapped vpn succeeded")
		}
	})
}

func TestDiscardUnused(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		// Untouched mapping: discard works.
		cp2 := fx.s.NewCpage()
		if _, err := fx.cm.Enter(1, cp2, Read); err != nil {
			panic(err)
		}
		if err := fx.cm.DiscardUnused(1); err != nil {
			panic(fmt.Sprintf("DiscardUnused: %v", err))
		}
		if fx.cm.Lookup(1) != nil {
			t.Error("entry survived discard")
		}
		// Touched mapping: refuse.
		fx.touch(th, 0, 0, false)
		if err := fx.cm.DiscardUnused(0); err == nil {
			t.Error("DiscardUnused of live mapping succeeded")
		}
		// Missing mapping: refuse.
		if err := fx.cm.DiscardUnused(42); err == nil {
			t.Error("DiscardUnused of unmapped vpn succeeded")
		}
	})
}

func TestValidateToleratesInactiveStaleTranslations(t *testing.T) {
	fx := newTwoSpaceFixture(t)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		if _, err := fx.s.Touch(th, 1, fx.cm2, 7, false); err != nil {
			panic(err)
		}
		fx.cm2.Deactivate(1)
		fx.touch(th, 0, 0, true) // space-2 translation now stale but queued
		if err := fx.s.Validate(); err != nil {
			t.Errorf("Validate rejected legal stale translation: %v", err)
		}
	})
}
