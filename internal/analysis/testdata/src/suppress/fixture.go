// Package suppress is the suppression fixture: //lint:ignore silences
// exactly the named analyzer on exactly its line, every suppression is
// counted, a directive naming the wrong analyzer silences nothing, and
// malformed directives — including one naming an analyzer that is not
// registered — are findings in their own right (asserted via the
// Result, since they carry no message line of their own).
package suppress

import "platinum/internal/sim"

func suppressedTrailing(t *sim.Thread, d sim.Time) {
	t.Charge(7, d) //lint:ignore platinum/chargecause calibration shim predating the cause registry
}

func suppressedPreceding(t *sim.Thread, d sim.Time) {
	//lint:ignore platinum/chargecause second legacy shim, next-line form
	t.Charge(9, d)
}

func unsuppressed(t *sim.Thread, d sim.Time) {
	t.Charge(3, d) // want `Charge called with a raw literal`
}

func wrongAnalyzer(t *sim.Thread, d sim.Time) {
	//lint:ignore platinum/spanpair naming another analyzer silences nothing here
	t.Charge(5, d) // want `Charge called with a raw literal`
}

func malformedNoReason(t *sim.Thread, d sim.Time) {
	//lint:ignore platinum/chargecause
	t.Charge(sim.CauseCompute, d)
}

func malformedBareName(t *sim.Thread, d sim.Time) {
	//lint:ignore chargecause the analyzer must be written platinum/chargecause
	t.Charge(sim.CauseCompute, d)
}

func unregisteredAnalyzer(t *sim.Thread, d sim.Time) {
	//lint:ignore platinum/nosuchcheck a name the suite does not register can never be judged stale
	t.Charge(sim.CauseCompute, d)
}
