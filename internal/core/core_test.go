package core

import (
	"errors"
	"fmt"
	"testing"

	"platinum/internal/mach"
	"platinum/internal/sim"
)

// fixture wires an engine, machine and coherent memory system together
// with one address space activated on every processor.
type fixture struct {
	t  *testing.T
	e  *sim.Engine
	m  *mach.Machine
	s  *System
	cm *Cmap
}

func newFixture(t *testing.T, mutate func(*mach.Config, *Config)) *fixture {
	t.Helper()
	mc := mach.DefaultConfig()
	cc := DefaultConfig()
	if mutate != nil {
		mutate(&mc, &cc)
	}
	e := sim.NewEngine()
	m, err := mach.New(e, mc)
	if err != nil {
		t.Fatalf("mach.New: %v", err)
	}
	s, err := NewSystem(m, cc)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	cm := s.NewCmap()
	for p := 0; p < m.Nodes(); p++ {
		cm.Activate(nil, p)
	}
	return &fixture{t: t, e: e, m: m, s: s, cm: cm}
}

// mapPage binds vpn to a fresh coherent page.
func (fx *fixture) mapPage(vpn int64, rights Rights) *Cpage {
	fx.t.Helper()
	cp := fx.s.NewCpage()
	if _, err := fx.cm.Enter(vpn, cp, rights); err != nil {
		fx.t.Fatalf("Enter: %v", err)
	}
	return cp
}

// run executes fn as a single simulated thread and drains the engine.
func (fx *fixture) run(fn func(th *sim.Thread)) {
	fx.t.Helper()
	fx.e.Spawn("driver", fn)
	if err := fx.e.Run(); err != nil {
		fx.t.Fatalf("Run: %v", err)
	}
}

// touch is a Touch that panics on error, which ends the body and fails
// the test through fx.run. It runs on a thread body, where the test's
// FailNow is not allowed.
func (fx *fixture) touch(th *sim.Thread, proc int, vpn int64, write bool) Copy {
	c, err := fx.s.Touch(th, proc, fx.cm, vpn, write)
	if err != nil {
		panic(fmt.Sprintf("Touch(proc=%d, vpn=%d, write=%v): %v", proc, vpn, write, err))
	}
	return c
}

// word reads word 0 of a physical copy.
func (fx *fixture) word(c Copy) uint32 {
	return fx.s.Memory().Module(c.Module).Words(c.Frame)[0]
}

// setWord writes word 0 of a physical copy.
func (fx *fixture) setWord(c Copy, v uint32) {
	fx.s.Memory().Module(c.Module).Words(c.Frame)[0] = v
}

const quiet = 2 * DefaultT1 // comfortably outside the freeze window

func TestFirstReadMaterializesLocally(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		c := fx.touch(th, 3, 0, false)
		if c.Module != 3 {
			t.Errorf("first touch placed page on module %d, want 3", c.Module)
		}
	})
	if cp.State() != Present1 {
		t.Errorf("state = %v, want present1", cp.State())
	}
	if len(cp.Copies()) != 1 {
		t.Errorf("copies = %d, want 1", len(cp.Copies()))
	}
	if cp.Stats.ReadFaults != 1 {
		t.Errorf("read faults = %d, want 1", cp.Stats.ReadFaults)
	}
}

func TestFirstWriteMaterializesModified(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		c := fx.touch(th, 5, 0, true)
		if c.Module != 5 {
			t.Errorf("write placed page on module %d, want 5", c.Module)
		}
		fx.setWord(c, 99)
	})
	if cp.State() != Modified {
		t.Errorf("state = %v, want modified", cp.State())
	}
	if cp.writers.Count() != 1 || !cp.writers.Has(5) {
		t.Errorf("writers = %+v, want exactly proc 5", cp.writers)
	}
}

func TestSecondTouchIsATCHitAndFree(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		before := th.Now()
		fx.touch(th, 0, 0, false)
		if d := th.Now() - before; d != 0 {
			t.Errorf("ATC-hit touch cost %v, want 0", d)
		}
	})
}

func TestReadReplicationCopiesData(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		c0 := fx.touch(th, 0, 0, true)
		fx.setWord(c0, 1234)
		th.Advance(quiet)
		c1 := fx.touch(th, 1, 0, false)
		if c1.Module != 1 {
			panic(fmt.Sprintf("read did not replicate locally: module %d", c1.Module))
		}
		if got := fx.word(c1); got != 1234 {
			t.Errorf("replica word = %d, want 1234", got)
		}
	})
	if cp.State() != PresentPlus {
		t.Errorf("state = %v, want present+", cp.State())
	}
	if len(cp.Copies()) != 2 {
		t.Errorf("copies = %d, want 2", len(cp.Copies()))
	}
	if cp.Stats.Replications != 1 {
		t.Errorf("replications = %d, want 1", cp.Stats.Replications)
	}
}

func TestReplicatingModifiedPageDowngradesWriter(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		// Proc 0's mapping must now be read-only: a write re-faults.
		if pe, ok := fx.cm.translation(0, 0); !ok || pe.rights.Allows(Write) {
			t.Errorf("writer's mapping not restricted: %+v ok=%v", pe, ok)
		}
		before := cp.Stats.WriteFaults
		fx.touch(th, 0, 0, true)
		if cp.Stats.WriteFaults != before+1 {
			t.Errorf("write after downgrade did not fault")
		}
	})
}

func TestWriteMigrationMovesPageAndData(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		c0 := fx.touch(th, 0, 0, true)
		fx.setWord(c0, 777)
		th.Advance(quiet)
		c1 := fx.touch(th, 1, 0, true)
		if c1.Module != 1 {
			panic(fmt.Sprintf("write miss did not migrate: module %d", c1.Module))
		}
		if got := fx.word(c1); got != 777 {
			t.Errorf("migrated word = %d, want 777", got)
		}
		// Old copy must be gone.
		if _, ok := cp.HasCopy(0); ok {
			t.Error("module 0 still holds a copy after migration")
		}
		// Old owner's translation must be invalidated.
		if _, ok := fx.cm.translation(0, 0); ok {
			t.Error("proc 0 translation survived migration")
		}
	})
	if cp.State() != Modified {
		t.Errorf("state = %v, want modified", cp.State())
	}
	if cp.Stats.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", cp.Stats.Migrations)
	}
}

func TestLocalWriteUpgradeNeedsNoShootdown(t *testing.T) {
	// present1 -> modified "requires neither" invalidation nor
	// reclamation (§3.2).
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false) // present1 on module 0
		sd := fx.s.Shootdowns()
		fx.touch(th, 0, 0, true) // upgrade in place
		if fx.s.Shootdowns() != sd {
			t.Error("local upgrade issued a shootdown")
		}
	})
	if cp.State() != Modified {
		t.Errorf("state = %v, want modified", cp.State())
	}
	if cp.Stats.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0", cp.Stats.Invalidations)
	}
}

func TestWriteOnPresentPlusReclaimsRemoteCopies(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		fx.touch(th, 2, 0, false)
		if len(cp.Copies()) != 3 {
			panic(fmt.Sprintf("copies = %d, want 3", len(cp.Copies())))
		}
		fx.touch(th, 0, 0, true)
		if len(cp.Copies()) != 1 {
			t.Errorf("copies after write = %d, want 1", len(cp.Copies()))
		}
		if _, ok := cp.HasCopy(0); !ok {
			t.Error("surviving copy is not the writer's")
		}
		// Readers of reclaimed copies must have lost their translations.
		for _, p := range []int{1, 2} {
			if _, ok := fx.cm.translation(p, 0); ok {
				t.Errorf("proc %d translation survived reclamation", p)
			}
		}
	})
	if cp.State() != Modified {
		t.Errorf("state = %v, want modified", cp.State())
	}
	if cp.Stats.Invalidations == 0 {
		t.Error("no invalidation recorded")
	}
}

func TestReaderOfWriterCopyKeepsTranslation(t *testing.T) {
	// A read-only mapping to the single (writer-local) copy stays valid
	// across the writer's upgrade: same physical page, still coherent.
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.Policy = NeverCache{} // keep reader remote-mapped to proc 0's copy
	})
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false) // copy on module 0
		fx.touch(th, 1, 0, false) // remote mapping to module 0
		fx.touch(th, 0, 0, true)  // upgrade
		if _, ok := fx.cm.translation(1, 0); !ok {
			t.Error("reader's mapping to the surviving copy was invalidated")
		}
	})
}

func TestFreezeOnRecentInvalidation(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true) // migrates, records invalidation
		// Within T1: the next miss must freeze, not migrate.
		th.Advance(sim.Millisecond)
		c := fx.touch(th, 2, 0, true)
		if c.Module != 1 {
			t.Errorf("frozen write mapped module %d, want remote 1", c.Module)
		}
	})
	if !cp.Frozen() {
		t.Error("page not frozen despite recent invalidation")
	}
	if cp.Stats.Migrations != 1 {
		t.Errorf("migrations = %d, want 1 (second write must not migrate)", cp.Stats.Migrations)
	}
	if cp.Stats.RemoteMaps == 0 {
		t.Error("no remote mapping recorded")
	}
	if len(cp.Copies()) != 1 {
		t.Errorf("frozen page has %d copies, want 1", len(cp.Copies()))
	}
}

func TestFrozenPageStaysFrozenAcrossFaults(t *testing.T) {
	fx := newFixture(t, nil) // default: no thaw-on-fault
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true)
		th.Advance(sim.Millisecond)
		fx.touch(th, 2, 0, true) // freezes
		th.Advance(quiet)        // well past T1
		c := fx.touch(th, 3, 0, true)
		if c.Module != 1 {
			t.Errorf("default policy thawed on fault: module %d", c.Module)
		}
	})
	if !cp.Frozen() {
		t.Error("page thawed without defrost daemon")
	}
}

func TestThawOnFaultVariant(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.Policy = NewPlatinumPolicy(DefaultT1, true)
	})
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true)
		th.Advance(sim.Millisecond)
		fx.touch(th, 2, 0, true) // freezes
		if !cp.Frozen() {
			panic("page not frozen")
		}
		th.Advance(quiet)
		c := fx.touch(th, 3, 0, true)
		if c.Module != 3 {
			t.Errorf("thaw-on-fault did not migrate: module %d", c.Module)
		}
	})
	if cp.Frozen() {
		t.Error("page still frozen after thaw-on-fault migration")
	}
	if cp.Stats.Thaws != 1 {
		t.Errorf("thaws = %d, want 1", cp.Stats.Thaws)
	}
}

func TestDefrostSweepThaws(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true)
		th.Advance(sim.Millisecond)
		fx.touch(th, 2, 0, true) // freezes
		th.Advance(quiet)
		if n := fx.s.DefrostSweep(th, 0); n != 1 {
			panic(fmt.Sprintf("DefrostSweep thawed %d, want 1", n))
		}
		if cp.Frozen() {
			panic("page frozen after sweep")
		}
		// All mappings were invalidated: the writer re-faults.
		if _, ok := fx.cm.translation(2, 0); ok {
			t.Error("remote mapping survived defrost")
		}
		// And the next fault, past the window, migrates again.
		c := fx.touch(th, 3, 0, true)
		if c.Module != 3 {
			t.Errorf("post-thaw write mapped module %d, want 3", c.Module)
		}
	})
	if cp.Stats.Thaws != 1 {
		t.Errorf("thaws = %d, want 1", cp.Stats.Thaws)
	}
}

func TestDefrostDoesNotCountAsInterference(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true)
		th.Advance(sim.Millisecond)
		fx.touch(th, 2, 0, true) // freezes
		inv := cp.Stats.Invalidations
		th.Advance(quiet)
		fx.s.DefrostSweep(th, 0)
		if cp.Stats.Invalidations != inv {
			t.Error("defrost sweep recorded invalidation history")
		}
	})
}

func TestFrozenPageGrantsFullRightsOnReadFault(t *testing.T) {
	// §3.3: a frozen mapping grants the full rights the VM permits, so a
	// read followed by a write costs one fault, not two.
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true)
		th.Advance(sim.Millisecond)
		fx.touch(th, 2, 0, false) // read fault on frozen page
		wf := cp.Stats.WriteFaults
		fx.touch(th, 2, 0, true) // must not fault
		if cp.Stats.WriteFaults != wf {
			t.Error("write after frozen read fault re-faulted")
		}
	})
}

func TestProtectionViolation(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read) // read-only binding
	fx.run(func(th *sim.Thread) {
		if _, err := fx.s.Touch(th, 0, fx.cm, 0, false); err != nil {
			panic(fmt.Sprintf("read: %v", err))
		}
		_, err := fx.s.Touch(th, 0, fx.cm, 0, true)
		var pv *ErrProtection
		if !errors.As(err, &pv) {
			panic(fmt.Sprintf("write on read-only page: err = %v, want ErrProtection", err))
		}
	})
}

func TestUnmappedAccess(t *testing.T) {
	fx := newFixture(t, nil)
	fx.run(func(th *sim.Thread) {
		_, err := fx.s.Touch(th, 0, fx.cm, 42, false)
		var um *ErrUnmapped
		if !errors.As(err, &um) {
			panic(fmt.Sprintf("err = %v, want ErrUnmapped", err))
		}
	})
}

func TestNeverCachePolicyLeavesDataInPlace(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) { cc.Policy = NeverCache{} })
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		c := fx.touch(th, 1, 0, false)
		if c.Module != 0 {
			t.Errorf("never-cache replicated: module %d", c.Module)
		}
	})
	if cp.Stats.Replications+cp.Stats.Migrations != 0 {
		t.Error("never-cache moved data")
	}
	if cp.Frozen() {
		t.Error("never-cache froze the page")
	}
}

func TestAlwaysCachePolicyIgnoresInterference(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) { cc.Policy = AlwaysCache{} })
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		fx.touch(th, 1, 0, true) // immediate migration despite interference
		fx.touch(th, 0, 0, true)
	})
	if cp.Stats.Migrations != 2 {
		t.Errorf("migrations = %d, want 2", cp.Stats.Migrations)
	}
	if cp.Frozen() {
		t.Error("always-cache froze the page")
	}
}

func TestMigrateOncePolicyFreezesWrittenPages(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.Policy = MigrateOnce{Limit: 1}
	})
	cp := fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, true) // one migration allowed
		th.Advance(quiet)
		c := fx.touch(th, 2, 0, true) // over the limit: freeze
		if c.Module != 1 {
			t.Errorf("migrate-once moved again: module %d", c.Module)
		}
	})
	if cp.Stats.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", cp.Stats.Migrations)
	}
	if !cp.Frozen() {
		t.Error("page not frozen after exceeding the migrate limit")
	}
}

func TestOutOfFramesFallsBackToRemoteMapping(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.FramesPerModule = 1
	})
	fx.mapPage(0, Read|Write)
	fx.mapPage(1, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true) // module 0's only frame
		th.Advance(quiet)
		// Proc 0 touches page 1: no local frame, falls back elsewhere.
		c := fx.touch(th, 0, 1, true)
		if c.Module == 0 {
			t.Errorf("page 1 allocated on full module 0")
		}
	})
}

func TestHandlerContentionRecorded(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	// Seed the page on module 0.
	fx.e.Spawn("seed", func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
	})
	// Two processors fault on it at the same instant later.
	for p := 1; p <= 2; p++ {
		p := p
		fx.e.Spawn("reader", func(th *sim.Thread) {
			th.Advance(quiet)
			fx.touch(th, p, 0, false)
		})
	}
	if err := fx.e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cp.Stats.HandlerWait == 0 {
		t.Error("simultaneous faults recorded no handler contention")
	}
}

func TestActivationAppliesQueuedMessages(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false) // replicate: 2 copies
		// Proc 1's space goes inactive (its thread is descheduled).
		fx.cm.Deactivate(1)
		sd0 := fx.s.Shootdowns()
		_ = sd0
		fx.touch(th, 0, 0, true) // reclaims module 1's copy
		// Proc 1 was not interrupted; the change is queued.
		if fx.cm.PendingMessages() == 0 {
			panic("no Cmap message queued for inactive processor")
		}
		// Stale translation still present until activation...
		if _, ok := fx.cm.translation(1, 0); !ok {
			panic("inactive proc's translation removed eagerly")
		}
		// ...and applied on activation.
		fx.cm.Activate(th, 1)
		if _, ok := fx.cm.translation(1, 0); ok {
			t.Error("queued invalidation not applied on activation")
		}
		if fx.cm.PendingMessages() != 0 {
			t.Error("message not drained after activation")
		}
	})
}

func TestInactiveProcessorNotInterrupted(t *testing.T) {
	cfg := DefaultConfig()
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	var withInterrupt, withoutInterrupt sim.Time
	fx.run(func(th *sim.Thread) {
		// Case 1: reader active during reclaim.
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		fx.touch(th, 0, 0, false) // drain any deferred penalty on proc 0
		start := th.Now()
		fx.touch(th, 0, 0, true)
		withInterrupt = th.Now() - start

		// Case 2: same dance, reader inactive.
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		fx.cm.Deactivate(1)
		fx.touch(th, 0, 0, false) // drain any deferred penalty on proc 0
		start = th.Now()
		fx.touch(th, 0, 0, true)
		withoutInterrupt = th.Now() - start
		fx.cm.Activate(th, 1)
	})
	if withoutInterrupt >= withInterrupt {
		t.Errorf("inactive-target shootdown (%v) not cheaper than active (%v)",
			withoutInterrupt, withInterrupt)
	}
	if diff := withInterrupt - withoutInterrupt; diff != cfg.ShootdownSync {
		t.Errorf("active-target premium = %v, want ShootdownSync %v", diff, cfg.ShootdownSync)
	}
}

func TestPenaltyChargedToInterruptedProcessor(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.mapPage(1, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		fx.touch(th, 1, 1, false) // warm page 1 for proc 1 (ATC hit later)
		fx.touch(th, 0, 0, true)  // interrupts proc 1
		// Proc 1's next access pays the deferred interrupt-handling cost
		// even though it is an ATC hit.
		before := th.Now()
		fx.touch(th, 1, 1, false)
		if d := th.Now() - before; d != fx.m.Config().InterruptHandle {
			t.Errorf("deferred penalty = %v, want %v", d, fx.m.Config().InterruptHandle)
		}
	})
}
