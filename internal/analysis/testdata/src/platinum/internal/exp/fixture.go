// Package exp is the nodeterminism fixture. It sits under internal/
// (internal/exp), so wall-clock reads, the unseeded global rand source,
// and map-ordered emission must all be flagged here.
package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"platinum/internal/sim"
)

func wallClock() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func globalRand() int {
	r := rand.New(rand.NewSource(1)) // seeded source: allowed
	n := r.Intn(10)                  // method on *rand.Rand: allowed
	return n + rand.Intn(10)         // want `rand\.Intn uses the unseeded global source`
}

func mapPrint(m map[string]int) {
	for k, v := range m { // want `range over map calls fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

func mapCharge(t *sim.Thread, costs map[int]sim.Time) {
	for _, d := range costs { // want `range over map calls sim\.Thread\.Charge`
		t.Charge(sim.CauseCompute, d)
	}
}

func sortedPrint(m map[string]int) {
	// The fix the analyzer demands: collect, sort, then emit.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}

func slicePrint(xs []int) {
	// Ranging over a slice is ordered; emission is fine.
	for i, x := range xs {
		fmt.Printf("%d=%d\n", i, x)
	}
}
