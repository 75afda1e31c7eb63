package core

import (
	"fmt"
	"testing"

	"platinum/internal/mach"
	"platinum/internal/sim"
)

// Page-table variant cost pins. These are cost-table tests: each asserts
// the exact virtual-time decomposition the variant is specified to
// charge, so a refactor that accidentally double-charges (or drops) a
// component fails loudly rather than shifting a figure by a few percent.

// accountDelta binds th, the fixture's only thread, to node 0, runs fn
// and returns the change in node 0's per-cause account: what fn charged
// th.
func (fx *fixture) accountDelta(th *sim.Thread, fn func()) sim.Account {
	th.BindNode(0)
	before := fx.e.NodeAccounts()[0]
	fn()
	after := fx.e.NodeAccounts()[0]
	for c := range after {
		after[c] -= before[c]
	}
	return after
}

// TestPTHomeWalkChargedOnATCMiss pins the PTHome walk cost: every ATC
// miss pays a two-word walk against the Cmap's page-table home
// node — on both the full-fault path and the Pmap-hit reload path — and
// an ATC hit pays nothing.
func TestPTHomeWalkChargedOnATCMiss(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.PageTables = PTConfig{Mode: PTHome}
	})
	fx.mapPage(0, Read|Write)
	mc := fx.m.Config()
	// The fixture's single Cmap has id 0, so its table lives on node 0
	// and proc 1's walks are remote.
	wantWalk := 2 * mc.RemoteRead
	fx.run(func(th *sim.Thread) {
		d := fx.accountDelta(th, func() { fx.touch(th, 1, 0, false) })
		if d[sim.CausePmapWalk] != wantWalk {
			t.Errorf("fault-path walk = %v, want %v", d[sim.CausePmapWalk], wantWalk)
		}
		// ATC hit: no walk.
		d = fx.accountDelta(th, func() { fx.touch(th, 1, 0, false) })
		if d[sim.CausePmapWalk] != 0 {
			t.Errorf("ATC hit charged a walk: %v", d[sim.CausePmapWalk])
		}
		// ATC miss that hits in the Pmap: walk + reload, nothing else.
		fx.s.atcs[1].invalidate(fx.cm.id, 0)
		d = fx.accountDelta(th, func() { fx.touch(th, 1, 0, false) })
		if d[sim.CausePmapWalk] != wantWalk {
			t.Errorf("reload-path walk = %v, want %v", d[sim.CausePmapWalk], wantWalk)
		}
		if total := d.Total(); total != wantWalk+mc.ATCReload {
			t.Errorf("reload-path total = %v, want walk %v + reload %v", total, wantWalk, mc.ATCReload)
		}
	})
	if w := fx.s.PTStats().Walks; w != 2 {
		t.Errorf("Walks = %d, want 2 (fault-path miss + reload-path miss)", w)
	}
}

// TestPTReplicateWalkLocalButInstallsWriteThrough pins the Mitosis-style
// trade: walks go to the walker's own replica (local on the uniform
// machine, where every node holds one), but each mapping install pays a
// posted one-word write-through to every other replica home.
func TestPTReplicateWalkLocalButInstallsWriteThrough(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.PageTables = PTConfig{Mode: PTReplicate}
	})
	fx.mapPage(0, Read|Write)
	mc := fx.m.Config()
	wantWalk := 2 * mc.LocalRead // proc 3's replica home is node 3
	wantRep := sim.Time(fx.m.Nodes()-1) * mc.RemoteWrite
	fx.run(func(th *sim.Thread) {
		d := fx.accountDelta(th, func() { fx.touch(th, 3, 0, false) })
		if d[sim.CausePmapWalk] != wantWalk {
			t.Errorf("walk = %v, want local %v", d[sim.CausePmapWalk], wantWalk)
		}
		if d[sim.CausePTReplicate] != wantRep {
			t.Errorf("write-through = %v, want %v (%d remote replicas)",
				d[sim.CausePTReplicate], wantRep, fx.m.Nodes()-1)
		}
	})
	if w := fx.s.PTStats().Walks; w != 1 {
		t.Errorf("Walks = %d, want 1", w)
	}
}

// batchReclaimScenario drives the satellite shootdown-coalescing
// scenario on fx: one Cpage mapped in TWO address spaces, proc 1
// holding a translation in each, then proc 0 (which owns the only other
// copy) writes, reclaiming proc 1's copy. The reclaim shoots down two
// Cmap entries whose target is the same processor. It returns the
// account delta of the write fault.
func batchReclaimScenario(t *testing.T, fx *fixture) sim.Account {
	t.Helper()
	cp := fx.s.NewCpage()
	if _, err := fx.cm.Enter(0, cp, Read|Write); err != nil {
		t.Fatalf("Enter: %v", err)
	}
	cm2 := fx.s.NewCmap()
	for p := 0; p < fx.m.Nodes(); p++ {
		cm2.Activate(nil, p)
	}
	if _, err := cm2.Enter(5, cp, Read|Write); err != nil {
		t.Fatalf("Enter cm2: %v", err)
	}
	var delta sim.Account
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false) // copy on module 0
		th.Advance(quiet)
		fx.touch(th, 1, 0, false) // replicate: copy on module 1
		// Proc 1 maps the same Cpage through the second space; the local
		// copy already exists, so this just installs a translation.
		if _, err := fx.s.Touch(th, 1, cm2, 5, false); err != nil {
			panic(fmt.Sprintf("Touch cm2: %v", err))
		}
		th.Advance(quiet)
		// Proc 0 writes: reclaims module 1's copy. TWO entries (one per
		// space) are shot down, both targeting proc 1.
		delta = fx.accountDelta(th, func() { fx.touch(th, 0, 0, true) })
		// The mapping changes themselves are never deferred.
		if _, ok := fx.cm.translation(1, 0); ok {
			t.Error("proc 1's cm1 translation survived the reclaim")
		}
		if _, ok := cm2.translation(1, 5); ok {
			t.Error("proc 1's cm2 translation survived the reclaim")
		}
	})
	return delta
}

// TestBatchFlushPaysSyncOncePerFlush is the coalescing cost pin: when a
// frame-freeing sync point flushes a target with several coalesced
// entries, the initiator pays the first-target ShootdownSync ONCE per
// flush — not once per coalesced entry, which is exactly the
// prior+interrupted==0 accounting the eager path uses per entry. The
// eager run of the identical scenario pays Sync for the first entry and
// an incremental dispatch for the second; batching coalesces the two
// interrupts into one, saving precisely that dispatch.
func TestBatchFlushPaysSyncOncePerFlush(t *testing.T) {
	eager := batchReclaimScenario(t, newFixture(t, nil))
	fxb := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.PageTables = PTConfig{BatchShootdown: true}
	})
	batched := batchReclaimScenario(t, fxb)

	cfg := DefaultConfig()
	mc := mach.DefaultConfig()
	if got, want := batched[sim.CauseBatchFlush], cfg.ShootdownSync; got != want {
		t.Errorf("batched flush cost = %v, want exactly one ShootdownSync %v", got, want)
	}
	// Both modes post both entries' Cmap messages and free one frame.
	wantShoot := 2*cfg.ShootdownPost + cfg.FrameFree
	if got := batched[sim.CauseShootdown]; got != wantShoot {
		t.Errorf("batched shootdown cost = %v, want %v (2 posts + frame free)", got, wantShoot)
	}
	if got, want := eager[sim.CauseShootdown], wantShoot+cfg.ShootdownSync+mc.InterruptDispatch; got != want {
		t.Errorf("eager shootdown cost = %v, want %v (2 posts + sync + dispatch + frame free)", got, want)
	}
	// The saving is exactly the second interrupt's dispatch.
	saved := eager.Total() - batched.Total()
	if saved != mc.InterruptDispatch {
		t.Errorf("batching saved %v, want one InterruptDispatch %v", saved, mc.InterruptDispatch)
	}
	st := fxb.s.PTStats()
	if st.Deferred != 2 || st.FlushIPIs != 1 || st.FlushApplies != 0 {
		t.Errorf("PTStats = %+v, want Deferred 2, FlushIPIs 1, FlushApplies 0", st)
	}
}

// TestBatchFlushScalesPerTarget pins the flush cost table across target
// counts: one Sync for the first pending target, one distance-scaled
// dispatch for each further one — the eager path's structure, which is
// what makes eager-vs-batched an apples-to-apples comparison.
func TestBatchFlushScalesPerTarget(t *testing.T) {
	for k := 1; k <= 3; k++ {
		fx := newFixture(t, func(_ *mach.Config, cc *Config) {
			cc.PageTables = PTConfig{BatchShootdown: true}
		})
		fx.mapPage(0, Read|Write)
		cfg := DefaultConfig()
		mc := fx.m.Config()
		fx.run(func(th *sim.Thread) {
			fx.touch(th, 0, 0, false)
			th.Advance(quiet)
			for p := 1; p <= k; p++ {
				fx.touch(th, p, 0, false) // k replicas
			}
			th.Advance(quiet)
			d := fx.accountDelta(th, func() { fx.touch(th, 0, 0, true) })
			want := cfg.ShootdownSync + sim.Time(k-1)*mc.InterruptDispatch
			if got := d[sim.CauseBatchFlush]; got != want {
				t.Errorf("k=%d: flush cost = %v, want sync + %d dispatches = %v", k, got, k-1, want)
			}
		})
		if st := fx.s.PTStats(); st.FlushIPIs != int64(k) || st.Deferred != int64(k) {
			t.Errorf("k=%d: PTStats = %+v, want %d IPIs, %d deferred", k, st, k, k)
		}
	}
}

// TestBatchDeferredAppliedOnActivation pins the lazy half: a deferral
// with no intervening frame-freeing sync point is drained when the
// target next activates an address space, at msgApply per coalesced
// entry — and the Pmap change itself was applied at defer time.
func TestBatchDeferredAppliedOnActivation(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.PageTables = PTConfig{BatchShootdown: true}
	})
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true) // modified, writer proc 0
		th.Advance(quiet)
		// Proc 1 replicates: the writer's mapping is restricted to
		// read-only. No frames are freed, so the restriction's cost is
		// deferred, not flushed.
		fx.touch(th, 1, 0, false)
		if pe, ok := fx.cm.translation(0, 0); !ok || pe.rights.Allows(Write) {
			panic(fmt.Sprintf("restriction not applied at defer time: %+v ok=%v", pe, ok))
		}
		if st := fx.s.PTStats(); st.Deferred != 1 || st.FlushIPIs != 0 {
			panic(fmt.Sprintf("PTStats = %+v, want 1 deferred, 0 IPIs", st))
		}
		// Proc 0's next activation drains the coalesced invalidation.
		fx.cm.Deactivate(0)
		d := fx.accountDelta(th, func() { fx.cm.Activate(th, 0) })
		if got := d[sim.CauseBatchFlush]; got != msgApply {
			t.Errorf("activation drain = %v, want msgApply %v", got, msgApply)
		}
		// Drained: a second activation charges nothing.
		fx.cm.Deactivate(0)
		d = fx.accountDelta(th, func() { fx.cm.Activate(th, 0) })
		if got := d[sim.CauseBatchFlush]; got != 0 {
			t.Errorf("second activation charged %v, want 0", got)
		}
	})
	if st := fx.s.PTStats(); st.FlushApplies != 1 {
		t.Errorf("FlushApplies = %d, want 1", st.FlushApplies)
	}
}
