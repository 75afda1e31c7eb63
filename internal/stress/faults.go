package stress

import (
	"platinum/internal/sim"
)

// Deterministic fault injection (Config.Faults). Each kind fires on
// every Nth opportunity: counter-based injection is exactly
// reproducible for a given schedule, which a PRNG shared with anything
// else would not be. The mix is aggressive but bounded: frequent small
// retries, occasional long transfer stalls and slow acks, and periodic
// allocation failures.
//
// Injection only adds delay and allocation failures — it cannot corrupt
// protocol state — and every injected delay is charged to the dedicated
// causes sim.CauseRetry and sim.CauseSlowAck, so fault-injection runs
// still satisfy the attribution conservation invariant.
const (
	// retryEvery injects a transient busy/retry delay of retryDelay
	// into every Nth word access (mach.SetAccessFault).
	retryEvery = 97
	retryDelay = 3 * sim.Microsecond

	// stallEvery stalls every Nth hardware block transfer by
	// stallDelay (core.FaultInjector.TransferStall).
	stallEvery = 11
	stallDelay = 400 * sim.Microsecond

	// ackEvery delays every Nth shootdown-target acknowledgement by
	// ackDelay (core.FaultInjector.AckDelay).
	ackEvery = 7
	ackDelay = 50 * sim.Microsecond

	// allocFailEvery fails every Nth frame allocation as if the pool
	// were exhausted (core.FaultInjector.FailAlloc), driving the
	// remote-reference fallback paths even with frames free.
	allocFailEvery = 13
)

// injector implements core.FaultInjector plus the mach access-fault
// hook, firing each kind on a modular counter.
type injector struct {
	accesses, xfers, acks, allocs int64
}

// accessFault is installed via mach.SetAccessFault.
func (in *injector) accessFault(proc, mod int) sim.Time {
	in.accesses++
	if in.accesses%retryEvery == 0 {
		return retryDelay
	}
	return 0
}

// TransferStall implements core.FaultInjector.
func (in *injector) TransferStall(src, dst int) sim.Time {
	in.xfers++
	if in.xfers%stallEvery == 0 {
		return stallDelay
	}
	return 0
}

// AckDelay implements core.FaultInjector.
func (in *injector) AckDelay(initiator, target int) sim.Time {
	in.acks++
	if in.acks%ackEvery == 0 {
		return ackDelay
	}
	return 0
}

// FailAlloc implements core.FaultInjector.
func (in *injector) FailAlloc(mod int) bool {
	in.allocs++
	return in.allocs%allocFailEvery == 0
}
