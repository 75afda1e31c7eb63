// Package stalefix is the stale-suppression fixture: one well-formed
// //lint:ignore directive whose named analyzer runs and finds nothing
// on its line. Under a run that includes chargecause the directive is
// stale and must fail the run; under a run that does not, the
// directive is not judged and must pass.
package stalefix

import "platinum/internal/sim"

func charge(t *sim.Thread, d sim.Time) {
	t.Charge(sim.CauseCompute, d) //lint:ignore platinum/chargecause the raw literal this once suppressed was removed
}
