package core

import (
	"errors"
	"fmt"
	"testing"

	"platinum/internal/mach"
	"platinum/internal/sim"
)

// Tests for the panic-to-error hardening pass, the graceful frame
// exhaustion paths, and shootdown races (concurrent initiators,
// teardown while translations are live).

// TestRefreezeDoesNotGrowFrozenList: a page thawed by a fault leaves a
// stale entry on the daemon's list; re-freezing it must reuse that
// entry, not append a duplicate (unbounded list growth otherwise).
func TestRefreezeDoesNotGrowFrozenList(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		// Thaw-on-fault is the variant that leaves stale list entries:
		// the daemon never sees the thaw.
		cc.Policy = NewPlatinumPolicy(DefaultT1, true)
	})
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		for i := 0; i < 5; i++ {
			freezePage(fx, th, 0, 0, 1, 2)
			if !cp.Frozen() {
				panic(fmt.Sprintf("round %d: page not frozen", i))
			}
			// A write fault from another processor migrates and thaws the
			// page without the daemon ever seeing it.
			th.Advance(quiet)
			fx.touch(th, 3, 0, true)
			if cp.Frozen() {
				panic(fmt.Sprintf("round %d: fault did not thaw", i))
			}
			th.Advance(quiet)
		}
		if got := len(fx.s.frozen); got > 1 {
			t.Errorf("frozen list grew to %d entries for one page", got)
		}
	})
}

// TestFrameExhaustionFallsBackToRemote drives a one-frame-per-module
// pool to zero: further faults on materialized pages must degrade to
// remote mappings (policy-visible via AllocFails and RemoteMaps), and
// only materializing a brand-new page may fail, with ErrNoMemory.
func TestFrameExhaustionFallsBackToRemote(t *testing.T) {
	fx := newFixture(t, func(mc *mach.Config, cc *Config) {
		mc.Nodes = 4
		cc.FramesPerModule = 1
	})
	for vpn := int64(0); vpn < 5; vpn++ {
		fx.mapPage(vpn, Read|Write)
	}
	fx.run(func(th *sim.Thread) {
		// Fill every module: page i materializes on module i.
		for p := 0; p < 4; p++ {
			fx.touch(th, p, int64(p), true)
		}
		for m := 0; m < 4; m++ {
			if free := fx.s.Memory().Module(m).FreeFrames(); free != 0 {
				panic(fmt.Sprintf("module %d still has %d free frames", m, free))
			}
		}
		// A read fault on page 0 from proc 1 cannot replicate (no frames
		// anywhere) and must fall back to a remote mapping.
		cp0 := fx.cm.Lookup(0).Cpage()
		th.Advance(quiet)
		c, err := fx.s.Touch(th, 1, fx.cm, 0, false)
		if err != nil {
			panic(fmt.Sprintf("read under exhaustion failed: %v", err))
		}
		if c.Module != 0 {
			t.Errorf("fallback mapped module %d, want remote copy on 0", c.Module)
		}
		if cp0.Stats.RemoteMaps == 0 {
			t.Error("fallback not recorded as a remote map")
		}
		if cp0.Stats.AllocFails == 0 {
			t.Error("failed allocation not recorded in AllocFails")
		}
		// A write fault from a third processor likewise degrades to a
		// remote write mapping rather than failing.
		th.Advance(quiet)
		if _, err := fx.s.Touch(th, 2, fx.cm, 0, true); err != nil {
			panic(fmt.Sprintf("write under exhaustion failed: %v", err))
		}
		// Only a never-materialized page has nowhere to go.
		var nomem *ErrNoMemory
		if _, err := fx.s.Touch(th, 3, fx.cm, 4, false); !errors.As(err, &nomem) {
			t.Errorf("materializing with zero frames: err = %v, want ErrNoMemory", err)
		}
		if err := fx.s.Validate(); err != nil {
			t.Errorf("Validate under exhaustion: %v", err)
		}
	})
}

// TestInjectedAllocFailureIsGraceful: a FaultInjector failing
// allocations must push faults onto the same fallback paths with the
// pool healthy, and the run must stay valid.
func TestInjectedAllocFailureIsGraceful(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.s.SetFaultInjector(failEveryAlloc{})
	fx.run(func(th *sim.Thread) {
		// Materialization itself survives per-module failures only if
		// some module succeeds; failEveryAlloc fails all, so the first
		// touch reports ErrNoMemory despite free frames.
		var nomem *ErrNoMemory
		if _, err := fx.s.Touch(th, 0, fx.cm, 0, false); !errors.As(err, &nomem) {
			panic(fmt.Sprintf("err = %v, want ErrNoMemory", err))
		}
		if cp.Stats.AllocFails == 0 {
			t.Error("injected failures not counted")
		}
		// Remove the injector: the same access now succeeds.
		fx.s.SetFaultInjector(nil)
		if _, err := fx.s.Touch(th, 0, fx.cm, 0, false); err != nil {
			panic(fmt.Sprintf("touch after removing injector: %v", err))
		}
		if err := fx.s.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
	})
}

type failEveryAlloc struct{}

func (failEveryAlloc) AckDelay(int, int) sim.Time      { return 0 }
func (failEveryAlloc) TransferStall(int, int) sim.Time { return 0 }
func (failEveryAlloc) FailAlloc(int) bool              { return true }

// TestConcurrentShootdownInitiatorsSameCpage: two threads write-fault
// the same present+ page from different processors. The Cpage handler
// lock serializes them (the second pays HandlerWait), both shootdowns
// complete, and the protocol state stays valid.
func TestConcurrentShootdownInitiatorsSameCpage(t *testing.T) {
	run := func() ([]sim.Account, *CpageStats) {
		fx := newFixture(t, nil)
		cp := fx.mapPage(0, Read|Write)
		// Build a present+ page with copies on 0, 1 and 2, then launch
		// two initiators at the same instant; they race write faults on
		// the same page and serialize on the Cpage handler lock.
		fx.e.Spawn("setup", func(th *sim.Thread) {
			th.BindNode(0)
			fx.touch(th, 0, 0, false)
			th.Advance(quiet)
			fx.touch(th, 1, 0, false)
			fx.touch(th, 2, 0, false)
			for _, proc := range []int{1, 2} {
				p := proc
				fx.e.Spawn("writer", func(wt *sim.Thread) {
					wt.BindNode(p)
					fx.touch(wt, p, 0, true)
				})
			}
		})
		if err := fx.e.Run(); err != nil {
			t.Fatalf("race: %v", err)
		}
		if err := fx.s.Validate(); err != nil {
			t.Fatalf("Validate after race: %v", err)
		}
		if cp.State() != Modified || len(cp.Copies()) != 1 {
			t.Fatalf("post-race state %v with %d copies", cp.State(), len(cp.Copies()))
		}
		if cp.Stats.HandlerWait == 0 {
			t.Error("second initiator never queued on the Cpage lock")
		}
		st := cp.Stats
		return fx.e.NodeAccounts(), &st
	}
	// Determinism: with accounting enabled the whole run — accounts and
	// per-page stats — must be bit-for-bit identical across repeats.
	acct1, st1 := run()
	acct2, st2 := run()
	if len(acct1) != len(acct2) {
		t.Fatalf("account lengths differ")
	}
	for n := range acct1 {
		if acct1[n] != acct2[n] {
			t.Errorf("node %d accounts differ: %v vs %v", n, acct1[n], acct2[n])
		}
	}
	if *st1 != *st2 {
		t.Errorf("page stats differ: %+v vs %+v", st1, st2)
	}
}

// TestTeardownDuringShootdownActivity: one address space tears down its
// binding while another space's translations to the same Cpage are
// live and a migration shootdown is in flight at op granularity.
func TestTeardownDuringShootdownActivity(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	// Second address space sharing the same coherent page.
	cm2 := fx.s.NewCmap()
	for p := 0; p < fx.m.Nodes(); p++ {
		cm2.Activate(nil, p)
	}
	if _, err := cm2.Enter(7, cp, Read|Write); err != nil {
		t.Fatalf("Enter: %v", err)
	}
	fx.run(func(th *sim.Thread) {
		// Both spaces take translations.
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		if _, err := fx.s.Touch(th, 2, cm2, 7, false); err != nil {
			panic(fmt.Sprintf("space-2 touch: %v", err))
		}
		if len(cp.mappers) != 2 {
			panic(fmt.Sprintf("mappers = %d, want 2", len(cp.mappers)))
		}
		// Space 2 tears down its mapping while space 1's translations
		// are live.
		if err := cm2.Remove(th, 2, 7); err != nil {
			panic(fmt.Sprintf("Remove: %v", err))
		}
		if err := fx.s.Validate(); err != nil {
			panic(fmt.Sprintf("Validate after teardown: %v", err))
		}
		// A migration now must shoot down only the remaining space's
		// translations — the dead CmapEntry is unlinked.
		fx.touch(th, 3, 0, true)
		if err := fx.s.Validate(); err != nil {
			panic(fmt.Sprintf("Validate after migration: %v", err))
		}
		if len(cp.mappers) != 1 {
			t.Errorf("mappers after teardown = %d, want 1", len(cp.mappers))
		}
	})
}

// TestDirectoryDesyncReturnsErrInvariant: a corrupted directory must
// surface as a typed ErrInvariant from the fault path — the hardening
// pass's contract — never as a panic.
func TestDirectoryDesyncReturnsErrInvariant(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false) // present+ on modules 0 and 1
		// Corrupt the directory: move a copy record to a module that
		// holds nothing.
		cp.copies[1].Module = 3
		_, err := fx.s.Touch(th, 3, fx.cm, 0, true)
		var inv *ErrInvariant
		if !errors.As(err, &inv) {
			panic(fmt.Sprintf("err = %v, want ErrInvariant", err))
		}
		if inv.Page != cp.id {
			t.Errorf("error names page %d, want %d", inv.Page, cp.id)
		}
		if inv.DirMask == 0 || inv.Detail == "" {
			t.Errorf("error lacks diagnosis: %+v", inv)
		}
		// Validate independently detects the same corruption.
		if fx.s.Validate() == nil {
			t.Error("Validate missed the desync")
		}
	})
}

// TestValidateChecksPageInvariants plants, on a live present+ page,
// each corruption of a page that Validate can still see (its state is
// derived from its copies and writers, so state agreement needs no
// check) and expects Validate's message for it.
func TestValidateChecksPageInvariants(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(cp, other *Cpage) (want string)
	}{
		{"module listed twice", func(cp, _ *Cpage) string {
			cp.copies[1].Module = 0
			return "cpage 0: directory lists module 0 twice"
		}},
		{"writer on two copies", func(cp, _ *Cpage) string {
			cp.writers.Add(2)
			return "cpage 0: 1 writer(s) with 2 copies"
		}},
		{"frozen with two copies", func(cp, _ *Cpage) string {
			cp.frozen = true
			return "cpage 0: frozen with 2 copies"
		}},
		{"frame owned by another page", func(cp, other *Cpage) string {
			cp.copies[0].Frame = other.copies[0].Frame
			return fmt.Sprintf("cpage 0: IPT owner of module 0 frame %d is (1,true)", other.copies[0].Frame)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t, nil)
			cp := fx.mapPage(0, Read|Write)
			other := fx.mapPage(1, Read|Write)
			fx.run(func(th *sim.Thread) {
				fx.touch(th, 0, 0, false)
				th.Advance(quiet)
				fx.touch(th, 1, 0, false) // present+ on modules 0 and 1
				fx.touch(th, 0, 1, false) // the other page on module 0
			})
			if err := fx.s.Validate(); err != nil {
				t.Fatalf("Validate before the corruption: %v", err)
			}
			want := tc.plant(cp, other)
			if err := fx.s.Validate(); fmt.Sprint(err) != want {
				t.Errorf("Validate = %v, want %q", err, want)
			}
		})
	}
}

// TestValidateChecksATCAgainstPmap: an ATC entry with no Pmap
// translation behind it, or one more permissive than its Pmap
// translation, lets a processor keep using a mapping a shootdown
// dropped or restricted. Validate must name the entry.
func TestValidateChecksATCAgainstPmap(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	var c Copy
	fx.run(func(th *sim.Thread) { c = fx.touch(th, 1, 0, false) })
	if err := fx.s.Validate(); err != nil {
		t.Fatalf("Validate after a read fault: %v", err)
	}
	for _, tc := range []struct {
		proc   int
		rights Rights
		want   string
	}{
		{2, Read, fmt.Sprintf("cmap 0 vpn 0 proc 2: ATC entry to (%d,%d) r with no Pmap translation", c.Module, c.Frame)},
		{1, Read | Write, fmt.Sprintf("cmap 0 vpn 0 proc 1: ATC entry to (%d,%d) rw, Pmap translation to (%d,%d) r",
			c.Module, c.Frame, c.Module, c.Frame)},
	} {
		a := fx.s.atcs[tc.proc]
		a.install(fx.cm.id, 0, c, tc.rights)
		if err := fx.s.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("Validate = %v, want %q", err, tc.want)
		}
		a.invalidate(fx.cm.id, 0)
		if err := fx.s.Validate(); err != nil {
			t.Errorf("Validate after invalidating proc %d's entry: %v", tc.proc, err)
		}
	}
}
