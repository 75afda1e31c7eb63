package sim

import "testing"

// Conservation by construction: a node's account always sums to
// exactly the virtual time its thread consumed, however charges are
// attributed (or not). The thread spawns at time 0, so that time is its
// clock.
func TestAccountConservation(t *testing.T) {
	e := NewEngine()
	var th *Thread
	e.Spawn("w", func(x *Thread) {
		th = x
		x.BindNode(0)
		x.Advance(100)                     // unattributed
		x.Charge(CauseCompute, 50)         // attributed up front
		x.Attribute(CauseRemoteAccess, 30) // classify part of the first 100
		x.Advance(7)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a := e.NodeAccounts()[0]
	if got, want := a.Total(), th.Now(); got != want {
		t.Fatalf("account total %v, consumed %v", got, want)
	}
	if th.Now() != 157 {
		t.Fatalf("consumed %v, want 157", th.Now())
	}
	if a[CauseCompute] != 50 || a[CauseRemoteAccess] != 30 {
		t.Fatalf("attributed slots wrong: %+v", a)
	}
	if a[CauseUnattributed] != 77 {
		t.Fatalf("unattributed %v, want 77", a[CauseUnattributed])
	}
}

// Attribution is pure bookkeeping: two identical runs, one with
// attribution and one without, must dispatch identically and end at
// the same virtual time.
func TestAttributionDoesNotChangeTiming(t *testing.T) {
	run := func(attrib bool) (Time, []string) {
		e := NewEngine()
		var order []string
		body := func(name string, d Time) func(*Thread) {
			return func(x *Thread) {
				for i := 0; i < 4; i++ {
					if attrib {
						x.Charge(CauseCompute, d)
					} else {
						x.Advance(d)
					}
					order = append(order, name)
				}
			}
		}
		e.Spawn("a", body("a", 3))
		e.Spawn("b", body("b", 5))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now(), order
	}
	t1, o1 := run(false)
	t2, o2 := run(true)
	if t1 != t2 {
		t.Fatalf("elapsed differs: %v vs %v", t1, t2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("dispatch count differs: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("dispatch order differs at %d: %s vs %s", i, o1[i], o2[i])
		}
	}
}

// Per-node accounts: charges follow the binding in effect at charge
// time; history stays with the node that spent the time.
func TestBindNodeRoutesCharges(t *testing.T) {
	e := NewEngine()
	e.Spawn("w", func(x *Thread) {
		x.BindNode(0)
		x.Charge(CauseCompute, 10)
		x.BindNode(2) // migrate
		x.Charge(CauseCompute, 5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	na := e.NodeAccounts()
	if len(na) != 3 {
		t.Fatalf("want 3 node accounts, got %d", len(na))
	}
	if na[0][CauseCompute] != 10 || na[1][CauseCompute] != 0 || na[2][CauseCompute] != 5 {
		t.Fatalf("charges misrouted: %+v", na)
	}
	tot := e.TotalAccount()
	if tot.Total() != 15 {
		t.Fatalf("total %v, want 15", tot.Total())
	}
}

// AttributeAccount classifies an operation's buffered costs with one
// attribution — and so one charge-histogram sample — per nonzero
// cause, whatever the account's unattributed slot holds.
func TestAttributeAccount(t *testing.T) {
	e := NewEngine()
	e.EnableChargeHistograms(1)
	e.Spawn("w", func(x *Thread) {
		x.BindNode(0)
		var a Account
		a[CauseFault] = 70
		a[CauseShootdown] = 30
		a[CauseUnattributed] = 999 // never moved: it is the source slot
		x.AttributeAccount(&a)
		x.Advance(100)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a := e.NodeAccounts()[0]
	if a[CauseFault] != 70 || a[CauseShootdown] != 30 || a[CauseUnattributed] != 0 {
		t.Fatalf("account %+v, want fault=70 shootdown=30 unattributed=0", a)
	}
	for c, want := range map[Cause]int64{CauseFault: 1, CauseShootdown: 1, CauseCompute: 0} {
		if got := e.ChargeHist(0, c).Count(); got != want {
			t.Errorf("%v histogram count %d, want %d", c, got, want)
		}
	}
}

// Unblock's clock jump (blocked time) is banked as CauseSync, keeping
// the conservation invariant exact across Block/Unblock. The sleeper
// spawns at time 0, so its clock is the time it consumed.
func TestBlockedTimeIsSync(t *testing.T) {
	e := NewEngine()
	var blocked *Thread
	e.Spawn("sleeper", func(x *Thread) {
		blocked = x
		x.BindNode(0)
		x.Block()
	})
	e.Spawn("waker", func(x *Thread) {
		x.Advance(40)
		blocked.Unblock(x.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a := e.NodeAccounts()[0]
	if a[CauseSync] != 40 {
		t.Fatalf("sync %v, want 40", a[CauseSync])
	}
	if a.Total() != blocked.Now() {
		t.Fatalf("account total %v != consumed %v", a.Total(), blocked.Now())
	}
}

// Over-attribution is visible as a negative unattributed balance, the
// signal CheckConservation turns into an error.
func TestOverAttributionGoesNegative(t *testing.T) {
	e := NewEngine()
	var th *Thread
	e.Spawn("w", func(x *Thread) {
		th = x
		x.BindNode(0)
		x.Advance(10)
		x.Attribute(CauseFault, 25)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a := e.NodeAccounts()[0]
	if a[CauseUnattributed] != -15 {
		t.Fatalf("unattributed %v, want -15", a[CauseUnattributed])
	}
	if a.Total() != th.Now() {
		t.Fatalf("conservation broken: %v != %v", a.Total(), th.Now())
	}
}

// Cause names are stable JSON identifiers.
func TestCauseStrings(t *testing.T) {
	want := map[Cause]string{
		CauseUnattributed:  "unattributed",
		CauseCompute:       "compute",
		CauseLocalAccess:   "local_access",
		CauseRemoteAccess:  "remote_access",
		CauseBlockTransfer: "block_transfer",
		CauseFault:         "fault",
		CauseShootdown:     "shootdown",
		CauseQueue:         "queue",
		CauseSync:          "sync",
		CauseKernel:        "kernel",
		CauseRetry:         "retry",
		CauseSlowAck:       "slow_ack",
		CausePmapWalk:      "pmap_walk",
		CausePTReplicate:   "pt_replicate",
		CauseBatchFlush:    "batch_flush",
	}
	if len(want) != int(NumCauses) {
		t.Fatalf("test covers %d causes, NumCauses is %d", len(want), NumCauses)
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("cause %d: %q, want %q", c, c.String(), s)
		}
	}
}

// The remote-access and coherency-overhead shares of an account, the
// two cost columns every speedup table carries.
func TestAccountFractions(t *testing.T) {
	var a Account
	a[CauseCompute] = 150
	a[CauseRemoteAccess] = 25
	a[CauseFault] = 10
	a[CauseShootdown] = 5
	a[CauseQueue] = 10
	if got, want := a.RemoteFraction(), 25.0/200; got != want {
		t.Errorf("remote fraction %v, want %v", got, want)
	}
	if got, want := a.FaultFraction(), 15.0/200; got != want {
		t.Errorf("fault fraction %v, want %v", got, want)
	}
	var zero Account
	if zero.RemoteFraction() != 0 || zero.FaultFraction() != 0 {
		t.Errorf("empty account fractions must be 0")
	}
}
