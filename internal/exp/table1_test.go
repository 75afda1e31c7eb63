package exp

import (
	"math"
	"testing"

	"platinum/internal/core"
	"platinum/internal/mach"
	"platinum/internal/model"
)

func TestSharingMigrationWinsWhenModelSaysSo(t *testing.T) {
	// rho=2.0, g(2)=2: model S_min ~141 words. Well above: migration
	// should win; well below: remote should win.
	big := sharingConfig{PageWords: 1024, Rho: 2.0, Procs: 2, Ops: 60}
	bigMig, err := runSharing(withPolicy(big, true))
	if err != nil {
		t.Fatal(err)
	}
	bigRem, err := runSharing(withPolicy(big, false))
	if err != nil {
		t.Fatal(err)
	}
	if bigMig >= bigRem {
		t.Errorf("s=1024 rho=2: migrate (%v) should beat remote (%v)", bigMig, bigRem)
	}

	small := sharingConfig{PageWords: 16, Rho: 2.0, Procs: 2, Ops: 60}
	smallMig, err := runSharing(withPolicy(small, true))
	if err != nil {
		t.Fatal(err)
	}
	smallRem, err := runSharing(withPolicy(small, false))
	if err != nil {
		t.Fatal(err)
	}
	if smallMig <= smallRem {
		t.Errorf("s=16 rho=2: remote (%v) should beat migrate (%v)", smallRem, smallMig)
	}
}

func withPolicy(cfg sharingConfig, migrate bool) sharingConfig {
	if migrate {
		cfg.Policy = core.AlwaysCache{}
	} else {
		cfg.Policy = core.NeverCache{}
	}
	return cfg
}

func TestEmpiricalSMinNearModel(t *testing.T) {
	// The simulator's own constants differ slightly from the paper's
	// rounded ones; build model params from the simulator's defaults.
	params := generationParams(mach.DefaultConfig(), 1)
	for _, tc := range []struct {
		rho   float64
		procs int
	}{
		{2.0, 2},  // g = 2
		{1.0, 16}, // g = 16/15 ~ 1.07
	} {
		g := model.GRoundRobin(tc.procs)
		want := params.SMin(tc.rho, g)
		got, err := empiricalSMin(tc.rho, tc.procs, 8, 8192, 4*tc.procs)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("rho=%.2f p=%d: model says never, empirical %v", tc.rho, tc.procs, got)
			}
			continue
		}
		ratio := got / want
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("rho=%.2f p=%d: empirical S_min %.0f vs model %.0f (ratio %.2f)",
				tc.rho, tc.procs, got, want, ratio)
		}
	}
}

func TestSharingConfigValidation(t *testing.T) {
	bad := []sharingConfig{
		{PageWords: 0, Rho: 1, Procs: 2, Ops: 1, Policy: core.AlwaysCache{}},
		{PageWords: 8, Rho: 1, Procs: 1, Ops: 1, Policy: core.AlwaysCache{}},
		{PageWords: 8, Rho: 1, Procs: 2, Ops: 0, Policy: core.AlwaysCache{}},
	}
	for i, cfg := range bad {
		if _, err := runSharing(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEmpiricalSMinNeverBelowBreakEven(t *testing.T) {
	// Density far below the break-even: migration loses at any page
	// size, so the bisection reports "never" (+Inf).
	got, err := empiricalSMin(0.05, 2, 8, 512, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Fatalf("S_min = %v, want +Inf", got)
	}
}
