// Package outside is the negative scope fixture: it is outside
// internal/, so nodeterminism and noprotocolpanic must both stay silent
// here even though the code reads the wall clock, uses global rand,
// and panics.
package outside

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock; fine outside internal/.
func Stamp() time.Time { return time.Now() }

// Roll uses the global source; fine outside internal/.
func Roll() int { return rand.Intn(6) }

// Must panics; fine outside internal/core and internal/mach.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}
