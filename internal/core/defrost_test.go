package core

import (
	"fmt"
	"testing"

	"platinum/internal/mach"
	"platinum/internal/sim"
)

// freezePage drives the classic freeze sequence on vpn: materialize on
// proc a, migrate to proc b after the quiet window, then re-fault within
// T1 from proc c so the policy freezes the page.
func freezePage(fx *fixture, th *sim.Thread, vpn int64, a, b, c int) {
	fx.touch(th, a, vpn, true)
	th.Advance(quiet)
	fx.touch(th, b, vpn, true)
	th.Advance(sim.Millisecond)
	fx.touch(th, c, vpn, true)
}

func TestPeriodicAndAdaptiveDefrostAgree(t *testing.T) {
	// The periodic daemon must leave the page thawed well after t2, and
	// record exactly one thaw.
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.DefrostPeriod = 20 * sim.Millisecond
	})
	cp := fx.mapPage(0, Read|Write)
	fx.s.StartDefrostDaemon(0)
	fx.run(func(th *sim.Thread) {
		freezePage(fx, th, 0, 0, 1, 2)
		th.Advance(100 * sim.Millisecond)
	})
	if cp.Frozen() {
		t.Error("page still frozen")
	}
	if cp.Stats.Thaws != 1 {
		t.Errorf("thaws = %d, want 1", cp.Stats.Thaws)
	}
}

func TestFrozenPagesListing(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.mapPage(1, Read|Write)
	fx.run(func(th *sim.Thread) {
		freezePage(fx, th, 0, 0, 1, 2)
		if got := len(fx.s.FrozenPages()); got != 1 {
			panic(fmt.Sprintf("frozen pages = %d, want 1", got))
		}
		freezePage(fx, th, 1, 3, 4, 5)
		if got := len(fx.s.FrozenPages()); got != 2 {
			panic(fmt.Sprintf("frozen pages = %d, want 2", got))
		}
		fx.s.DefrostSweep(th, 0)
		if got := len(fx.s.FrozenPages()); got != 0 {
			panic(fmt.Sprintf("frozen pages after sweep = %d, want 0", got))
		}
	})
}
