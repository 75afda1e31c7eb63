// Package sim is the fixture stub of the real internal/sim: just enough
// surface (Time, the Cause enum, Thread's charge/attribute methods) for
// the analyzer fixtures to type-check. Its import path ends in
// internal/sim, so the analyzers treat it as the defining package.
package sim

// Time is simulated time.
type Time int64

// Cause is an attribution bucket.
type Cause uint8

// The declared causes. Fixture code passing anything but these to
// Charge/Attribute is what chargecause exists to flag.
const (
	CauseUnattributed Cause = iota
	CauseCompute
	CauseFault
	CauseRetry
	CausePmapWalk
	CausePTReplicate
	CauseBatchFlush
	NumCauses
)

// Thread is the stub simulation thread.
type Thread struct{ now Time }

// Charge attributes d to cause c and advances the clock.
func (t *Thread) Charge(c Cause, d Time) { t.now += d }

// Attribute records d against cause c without advancing.
func (t *Thread) Attribute(c Cause, d Time) {}

// Advance moves the thread's clock forward.
func (t *Thread) Advance(d Time) { t.now += d }

// Delay moves the thread's clock forward, checking dispatch later.
func (t *Thread) Delay(d Time) { t.now += d }

// Now returns the thread's clock.
func (t *Thread) Now() Time { return t.now }
