package sim

// Consumed returns the total virtual time the thread has been charged
// since it was spawned (its clock minus its spawn-time clock). It
// always equals Account().Total() exactly — the conservation invariant
// the account tests check.
func (t *Thread) Consumed() Time { return t.clock - t.born }
