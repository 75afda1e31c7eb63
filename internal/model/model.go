// Package model implements the analytic migration model of §4.1: when
// does it pay to migrate a page rather than leave it remote?
//
// A data structure X fills a page of s words and is operated on by p
// processors, each operation making r references (density ρ = r/s). With
// T_l and T_r the local/remote word access times, T_b the block-transfer
// per-word time, and F the fixed migration overhead, migration wins when
//
//	ρ·s·T_r > g(p)·(s·T_b + F) + ρ·s·T_l
//
// which rearranges to s > g·N / (ρ − C·g) with N = F/(T_r−T_l) and
// C = T_b/(T_r−T_l). The paper's Table 1 evaluates this with N = 107 and
// C = 0.24 (their Butterfly Plus constants).
package model

import (
	"math"

	"platinum/internal/sim"
)

// Params holds the architectural constants of the model.
type Params struct {
	Tl sim.Time // local word access
	Tr sim.Time // remote word access
	Tb sim.Time // block-transfer per-word time
	F  sim.Time // fixed overhead of one migration
}

// PaperParams reproduces the constants behind the paper's Table 1:
// the table is computed from the rounded values N = 107 words and
// C = 0.24, so T_r and F here are back-solved to hit those exactly
// (T_r−T_l = T_b/0.24 ≈ 4583 ns, F = 107·(T_r−T_l) ≈ 0.49 ms — squarely
// in the paper's "about 0.48 ms" fixed overhead).
func PaperParams() Params {
	return Params{
		Tl: 320 * sim.Nanosecond,
		Tr: 4903 * sim.Nanosecond,
		Tb: 1100 * sim.Nanosecond,
		F:  490381 * sim.Nanosecond,
	}
}

// Numerator returns N = F/(T_r − T_l) in words.
func (p Params) Numerator() float64 {
	return float64(p.F) / float64(p.Tr-p.Tl)
}

// Coefficient returns C = T_b/(T_r − T_l), the paper's single most
// important architectural characteristic: it lower-bounds the reference
// density for which migration can ever make sense (below ρ* = C·g,
// SMin is +Inf).
func (p Params) Coefficient() float64 {
	return float64(p.Tb) / float64(p.Tr-p.Tl)
}

// GRoundRobin returns g(p) for strict round-robin access by p
// processors: the average number of data movements per saved remote
// operation, p/(p−1). g(2) = 2 is the worst case; g → 1 as p grows.
func GRoundRobin(p int) float64 {
	if p < 2 {
		return math.Inf(1) // a single processor never pays for remote access
	}
	return float64(p) / float64(p-1)
}

// SMin returns the minimum page size (in words) above which migration
// always pays, for reference density rho and movement ratio g.
// It returns +Inf ("never") when the density is too low for migration to
// win at any size, i.e. when ρ ≤ C·g.
func (p Params) SMin(rho, g float64) float64 {
	denom := rho - p.Coefficient()*g
	if denom <= 0 {
		return math.Inf(1)
	}
	return g * p.Numerator() / denom
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Rho  float64
	SMin [3]float64 // for g = 0.5, 1, 2; +Inf means "never"
}

// Table1Gs are the g(p) columns of Table 1.
var Table1Gs = [3]float64{0.5, 1, 2}

// Table1Rhos are the density rows of Table 1.
var Table1Rhos = []float64{0.17, 0.24, 0.35, 0.48, 0.60, 0.75, 1.0, 1.5, 2.0}

// Table1 evaluates the model at the paper's grid.
func (p Params) Table1() []Table1Row {
	rows := make([]Table1Row, len(Table1Rhos))
	for i, rho := range Table1Rhos {
		rows[i].Rho = rho
		for j, g := range Table1Gs {
			rows[i].SMin[j] = p.SMin(rho, g)
		}
	}
	return rows
}
