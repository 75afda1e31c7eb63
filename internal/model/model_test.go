package model

import (
	"math"
	"testing"
	"testing/quick"
)

// paperTable1 is Table 1 as printed in the paper.
var paperTable1 = map[float64][3]float64{
	0.17: {1070, math.Inf(1), math.Inf(1)},
	0.24: {445, math.Inf(1), math.Inf(1)},
	0.35: {232, 973, math.Inf(1)},
	0.48: {149, 435, math.Inf(1)},
	0.60: {111, 298, 1784},
	0.75: {85, 210, 793},
	1.0:  {61, 141, 412},
	1.5:  {39, 84, 210},
	2.0:  {28, 61, 141},
}

func TestTable1MatchesPaper(t *testing.T) {
	p := PaperParams()
	// The paper's constants: N ≈ 107, C ≈ 0.24.
	if n := p.Numerator(); math.Abs(n-107) > 1 {
		t.Fatalf("numerator = %.2f, want ~107", n)
	}
	if c := p.Coefficient(); math.Abs(c-0.2455) > 0.01 {
		t.Fatalf("coefficient = %.4f, want ~0.2455", c)
	}
	for _, row := range p.Table1() {
		want := paperTable1[row.Rho]
		for j := range Table1Gs {
			got := row.SMin[j]
			if math.IsInf(want[j], 1) {
				if !math.IsInf(got, 1) {
					t.Errorf("rho=%.2f g=%.1f: got %.0f, want never", row.Rho, Table1Gs[j], got)
				}
				continue
			}
			// Within 10% of the printed value (the paper rounds its
			// constants).
			if math.Abs(got-want[j])/want[j] > 0.10 {
				t.Errorf("rho=%.2f g=%.1f: S_min = %.0f, want ~%.0f",
					row.Rho, Table1Gs[j], got, want[j])
			}
		}
	}
}

func TestGRoundRobin(t *testing.T) {
	if g := GRoundRobin(2); g != 2 {
		t.Errorf("g(2) = %v, want 2 (worst case)", g)
	}
	if g := GRoundRobin(16); math.Abs(g-16.0/15.0) > 1e-12 {
		t.Errorf("g(16) = %v, want 16/15", g)
	}
	if !math.IsInf(GRoundRobin(1), 1) {
		t.Error("g(1) should be +Inf (no remote accesses to save)")
	}
	// g decreases towards 1 as p grows (migration gets more attractive).
	prev := GRoundRobin(2)
	for p := 3; p <= 32; p++ {
		g := GRoundRobin(p)
		if g >= prev || g <= 1 {
			t.Fatalf("g(%d) = %v not strictly decreasing towards 1", p, g)
		}
		prev = g
	}
}

func TestMigrationWins(t *testing.T) {
	p := PaperParams()
	// From Table 1: rho=1.0, g=1 => S_min ~141, so migration loses at
	// 100 words and wins at 200.
	if s := p.SMin(1.0, 1); s <= 100 || s >= 200 {
		t.Errorf("SMin(1.0, 1) = %v, want between 100 and 200", s)
	}
	// Density below break-even: never wins, any size.
	if s := p.SMin(0.2, 1); !math.IsInf(s, 1) {
		t.Errorf("SMin(0.2, 1) = %v, want +Inf below break-even density", s)
	}
}

func TestBreakEvenDensity(t *testing.T) {
	p := PaperParams()
	for _, g := range []float64{0.5, 1, 2} {
		be := p.Coefficient() * g // ρ* = C·g
		if !math.IsInf(p.SMin(be, g), 1) {
			t.Errorf("SMin at break-even density should be Inf")
		}
		if math.IsInf(p.SMin(be+0.05, g), 1) {
			t.Errorf("SMin just above break-even should be finite")
		}
	}
}

// Property: S_min decreases with density, increases with g, and scales
// proportionally with the fixed overhead (paper: "a decrease in overhead
// results in a proportional decrease in the minimum page size").
func TestPropertySMinMonotonic(t *testing.T) {
	f := func(rhoQ, gQ uint8) bool {
		p := PaperParams()
		rho := 0.3 + float64(rhoQ%100)/50 // 0.3 .. 2.3
		g := 0.25 + float64(gQ%8)/8       // 0.25 .. 1.125
		s1 := p.SMin(rho, g)
		if math.IsInf(s1, 1) {
			return true
		}
		if p.SMin(rho+0.1, g) >= s1 {
			return false
		}
		if !math.IsInf(p.SMin(rho, g+0.2), 1) && p.SMin(rho, g+0.2) <= s1 {
			return false
		}
		// Halving fixed overhead halves S_min (up to integer-nanosecond
		// truncation of F).
		ph := p
		ph.F = p.F / 2
		return math.Abs(ph.SMin(rho, g)-s1/2) < 1e-3*s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFasterBlockTransferLowersBreakEven(t *testing.T) {
	// §7: an effective block transfer mechanism is critical — halving
	// T_b halves the density below which migration can never win.
	p := PaperParams()
	fast := p
	fast.Tb = p.Tb / 2
	if fast.Coefficient() >= p.Coefficient() {
		t.Error("faster block transfer did not lower break-even density")
	}
	if math.Abs(fast.Coefficient()-p.Coefficient()/2) > 1e-12 {
		t.Error("break-even density not proportional to T_b")
	}
}
