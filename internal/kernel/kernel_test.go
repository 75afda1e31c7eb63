package kernel

import (
	"errors"
	"fmt"
	"testing"

	"platinum/internal/core"
	"platinum/internal/sim"
)

func boot(t *testing.T, mutate func(*Config)) *Kernel {
	t.Helper()
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	k, err := Boot(cfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return k
}

func TestBootValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Machine.Nodes = 0
	if _, err := Boot(cfg); err == nil {
		t.Fatal("Boot accepted invalid machine config")
	}
}

func TestSharedMemoryRoundTrip(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, err := sp.AllocWords("shared", 100, core.Read|core.Write)
	if err != nil {
		t.Fatalf("AllocWords: %v", err)
	}
	flag, err := sp.AllocWords("flag", 1, core.Read|core.Write)
	if err != nil {
		t.Fatalf("AllocWords: %v", err)
	}
	var got uint32
	k.Spawn("writer", 0, sp, func(th *Thread) {
		th.Write(va+7, 4242)
		th.Write(flag, 1)
	})
	k.Spawn("reader", 1, sp, func(th *Thread) {
		th.WaitAtLeast(flag, 1)
		got = th.Read(va + 7)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 4242 {
		t.Fatalf("reader saw %d, want 4242", got)
	}
}

func TestRangeOpsCrossPages(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	n := k.PageWords()*2 + 37
	va, err := sp.AllocWords("buf", n, core.Read|core.Write)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("w", 0, sp, func(th *Thread) {
		src := make([]uint32, n)
		for i := range src {
			src[i] = uint32(i * 3)
		}
		th.WriteRange(va, src)
		dst := make([]uint32, n)
		th.ReadRange(va, dst)
		for i := range dst {
			if dst[i] != uint32(i*3) {
				t.Errorf("word %d = %d, want %d", i, dst[i], i*3)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRangeSpeedupFromReplication(t *testing.T) {
	// Reading a remote page is ~15x slower than reading a local replica;
	// after replication the same range read is fast.
	k := boot(t, nil)
	sp := k.NewSpace()
	pw := k.PageWords()
	va, err := sp.AllocPages("data", 1, core.Read|core.Write)
	if err != nil {
		t.Fatal(err)
	}
	var first, second sim.Time
	k.Spawn("seed", 0, sp, func(th *Thread) {
		th.WriteRange(va, make([]uint32, pw))
	})
	k.Spawn("reader", 1, sp, func(th *Thread) {
		th.Sim().Advance(3 * core.DefaultT1) // let seed finish, stay quiet
		buf := make([]uint32, pw)
		s0 := th.Now()
		th.ReadRange(va, buf) // faults, replicates
		first = th.Now() - s0
		s1 := th.Now()
		th.ReadRange(va, buf) // all local now
		second = th.Now() - s1
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	localCost := k.Machine().Config().LocalRead * sim.Time(pw)
	if second != localCost {
		t.Errorf("replicated read = %v, want local %v", second, localCost)
	}
	if first < second {
		t.Errorf("faulting read (%v) cheaper than local read (%v)", first, second)
	}
}

func TestUpdateAppliesFunction(t *testing.T) {
	// Over an unaligned range spanning three pages, UpdateSlice hands f
	// one slice per page run, and the modules serve 2n words: one load
	// pass and one store pass.
	k := boot(t, nil)
	pw := k.PageWords()
	sp := k.NewSpace()
	base, err := sp.AllocWords("upd", 4*pw, core.Read|core.Write)
	if err != nil {
		t.Fatal(err)
	}
	va, n := base+int64(pw/2+3), 2*pw+5
	served := func() (words int64) {
		for i := range k.Nodes() {
			words += k.Machine().Module(i).Words
		}
		return words
	}
	k.Spawn("u", 0, sp, func(th *Thread) {
		src := make([]uint32, n)
		for i := range src {
			src[i] = uint32(7 * i)
		}
		th.WriteRange(va, src)
		before, runs := served(), 0
		th.UpdateSlice(va, n, func(off int, w []uint32) {
			runs++
			for j := range w {
				w[j] = 3*w[j] + uint32(off+j)
			}
		})
		if got := served() - before; got != int64(2*n) {
			t.Errorf("modules served %d words, want %d (a load and a store pass)", got, 2*n)
		}
		if runs != 3 {
			t.Errorf("f ran %d times, want once per page run (3)", runs)
		}
		dst := make([]uint32, n)
		th.ReadRange(va, dst)
		for i, v := range dst {
			if want := uint32(3*7*i + i); v != want {
				t.Errorf("word %d = %d, want %d", i, v, want) // not Fatalf: this is a thread body
				break
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicAddSerializesCounts(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("ctr", 1, core.Read|core.Write)
	const perThread = 50
	for p := 0; p < 4; p++ {
		k.Spawn("inc", p, sp, func(th *Thread) {
			for i := 0; i < perThread; i++ {
				th.AtomicAdd(va, 1)
			}
		})
	}
	var final uint32
	k.Spawn("check", 5, sp, func(th *Thread) {
		final = th.WaitAtLeast(va, 4*perThread)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if final != 4*perThread {
		t.Fatalf("counter = %d, want %d", final, 4*perThread)
	}
}

func TestContendedLockPageFreezes(t *testing.T) {
	// A hot synchronization word is the canonical fine-grain
	// write-shared word: under contention its page must end up frozen
	// (§4.2).
	k := boot(t, nil)
	sp := k.NewSpace()
	lock, _ := sp.AllocWords("hot-lock", 1, core.Read|core.Write)
	for p := 0; p < 6; p++ {
		k.Spawn(fmt.Sprintf("w%d", p), p, sp, func(th *Thread) {
			for i := 0; i < 20; i++ {
				th.AtomicAdd(lock, 1)
				th.Compute(5 * sim.Microsecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	obj, ok := k.Manager().LookupObject("hot-lock")
	if !ok {
		t.Fatal("lock object missing")
	}
	if obj.Cpage(0).Stats.Freezes == 0 {
		t.Error("contended lock page never froze")
	}
}

func TestPortSendReceive(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	p, err := k.NewPort("ch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.NewPort("ch"); err == nil {
		t.Fatal("duplicate port name accepted")
	}
	var got []uint32
	k.Spawn("recv", 1, sp, func(th *Thread) {
		got = th.Receive(p) // blocks: sender runs later
	})
	k.Spawn("send", 0, sp, func(th *Thread) {
		th.Compute(100 * sim.Microsecond)
		th.Send(p, []uint32{1, 2, 3})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("received %v, want [1 2 3]", got)
	}
}

func TestPortQueuesAndOrders(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	p, _ := k.NewPort("q")
	var order []uint32
	k.Spawn("send", 0, sp, func(th *Thread) {
		for i := uint32(1); i <= 5; i++ {
			th.Send(p, []uint32{i})
		}
	})
	k.Spawn("recv", 1, sp, func(th *Thread) {
		th.Compute(sim.Millisecond * 50)
		for i := 0; i < 5; i++ {
			order = append(order, th.Receive(p)[0])
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != uint32(i+1) {
			t.Fatalf("order = %v, want 1..5", order)
		}
	}
}

func TestPortCostScalesWithSize(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	p, _ := k.NewPort("sz")
	var small, large sim.Time
	k.Spawn("send", 0, sp, func(th *Thread) {
		s0 := th.Now()
		th.Send(p, make([]uint32, 10))
		small = th.Now() - s0
		s1 := th.Now()
		th.Send(p, make([]uint32, 1000))
		large = th.Now() - s1
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := portPerWord * 990
	if large-small != want {
		t.Fatalf("size premium = %v, want %v", large-small, want)
	}
}

func TestJoinWaitsForBody(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	var childEnd, joinEnd sim.Time
	child := k.Spawn("child", 1, sp, func(th *Thread) {
		th.Compute(5 * sim.Millisecond)
		childEnd = th.Now()
	})
	k.Spawn("parent", 0, sp, func(th *Thread) {
		th.Join(child)
		joinEnd = th.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if joinEnd < childEnd {
		t.Fatalf("join returned at %v before child ended at %v", joinEnd, childEnd)
	}
}

func TestJoinFinishedThreadReturnsImmediately(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	child := k.Spawn("child", 1, sp, func(th *Thread) {})
	k.Spawn("parent", 0, sp, func(th *Thread) {
		th.Compute(sim.Millisecond) // child certainly done
		th.Join(child)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestMigrateMovesLocality(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocPages("mine", 1, core.Read|core.Write)
	pw := k.PageWords()
	var beforeProc, afterProc int
	k.Spawn("roamer", 0, sp, func(th *Thread) {
		th.Write(va, 1) // page materializes on module 0
		beforeProc = th.Proc()
		th.Migrate(7)
		afterProc = th.Proc()
		// Quiet period, then write: page migrates to module 7.
		th.Sim().Advance(3 * core.DefaultT1)
		th.Write(va, 2)
		buf := make([]uint32, pw)
		s := th.Now()
		th.ReadRange(va, buf)
		local := k.Machine().Config().LocalRead * sim.Time(pw)
		if d := th.Now() - s; d != local {
			t.Errorf("post-migration read = %v, want local %v", d, local)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if beforeProc != 0 || afterProc != 7 {
		t.Fatalf("procs = %d -> %d, want 0 -> 7", beforeProc, afterProc)
	}
}

func TestSpinWaitBacksOff(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("ev", 1, core.Read|core.Write)
	var polls0 int64
	k.Spawn("waiter", 1, sp, func(th *Thread) {
		th.SpinWait(va, func(v uint32) bool {
			polls0++
			return v != 0
		})
	})
	k.Spawn("setter", 0, sp, func(th *Thread) {
		th.Compute(20 * sim.Millisecond)
		th.Write(va, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// With exponential backoff to 160µs, a 20ms wait takes ~130 polls,
	// not 4000.
	if polls0 > 400 {
		t.Fatalf("spin polls = %d, backoff not effective", polls0)
	}
}

func TestTwoAddressSpacesShareOneObject(t *testing.T) {
	k := boot(t, nil)
	mgr := k.Manager()
	obj, err := mgr.NewObject("shared-obj", 1)
	if err != nil {
		t.Fatal(err)
	}
	spA, spB := k.NewSpace(), k.NewSpace()
	vpnA, err := spA.vs.MapAnywhere(obj, core.Read|core.Write)
	if err != nil {
		t.Fatal(err)
	}
	vpnB, err := spB.vs.MapAnywhere(obj, core.Read)
	if err != nil {
		t.Fatal(err)
	}
	vaA, vaB := vpnA*int64(k.PageWords()), vpnB*int64(k.PageWords())
	// Private pages are not shared.
	privA, _ := spA.AllocWords("privA", 1, core.Read|core.Write)
	var got uint32
	k.Spawn("a", 0, spA, func(th *Thread) {
		th.Write(vaA, 31337)
		th.Write(privA, 1)
	})
	k.Spawn("b", 1, spB, func(th *Thread) {
		th.Compute(10 * sim.Millisecond)
		got = th.Read(vaB)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 31337 {
		t.Fatalf("space B read %d through shared object, want 31337", got)
	}
}

func TestDefrostDaemonRunsAutomatically(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("hot", 1, core.Read|core.Write)
	obj, _ := k.Manager().LookupObject("hot")
	// Create write-sharing to freeze the page, then go quiet for > t2.
	k.Spawn("a", 0, sp, func(th *Thread) {
		th.Write(va, 1) // materialize on module 0
		th.Sim().AdvanceTo(3*core.DefaultT1 + sim.Millisecond)
		th.Write(va, 2) // b migrated the page 1 ms ago: this freezes it
		if !obj.Cpage(0).Frozen() {
			t.Error("page not frozen")
		}
		th.Sim().Advance(2 * sim.Second) // defrost daemon must fire
		if obj.Cpage(0).Frozen() {
			t.Error("defrost daemon did not thaw the page")
		}
	})
	k.Spawn("b", 1, sp, func(th *Thread) {
		th.Sim().AdvanceTo(3 * core.DefaultT1)
		th.Write(va, 3) // quiet window passed: migrates, records invalidation
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestAccessCrossingPagePanics(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocPages("p", 2, core.Read|core.Write)
	k.Spawn("w", 0, sp, func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("page-crossing single access did not panic")
			}
		}()
		th.access(va+int64(k.PageWords())-1, 2, false, func([]uint32) {})
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUnmapZone(t *testing.T) {
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("tmp", 10, core.Read|core.Write)
	keep, _ := sp.AllocWords("keep", 1, core.Read|core.Write)
	k.Spawn("w", 0, sp, func(th *Thread) {
		th.Write(va, 1)
		th.Write(keep, 2)
		if err := sp.Unmap(th, va); err != nil {
			t.Errorf("Unmap: %v", err)
			return
		}
		// The kept zone still works.
		if v := th.Read(keep); v != 2 {
			t.Errorf("keep = %d", v)
		}
		// Accessing the unmapped zone is a fatal trap.
		defer func() {
			if recover() == nil {
				t.Error("access to unmapped zone did not trap")
			}
		}()
		th.Read(va)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationAppliesQueuedInvalidations(t *testing.T) {
	// A thread migrates away from proc 0; while the space is inactive
	// there, another thread's write queues an invalidation for proc 0.
	// Migrating back must apply it before any access.
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("pingpong", 1, core.Read|core.Write)
	ev, _ := sp.AllocWords("ev", 1, core.Read|core.Write)
	k.Spawn("roamer", 0, sp, func(th *Thread) {
		th.Read(va) // translation on proc 0
		th.Migrate(3)
		th.Write(ev, 1)
		th.WaitAtLeast(ev, 2) // wait for the writer to invalidate
		th.Migrate(0)         // must apply the queued message
		if v := th.Read(va); v != 77 {
			t.Errorf("read %d after migration back, want 77", v)
		}
	})
	k.Spawn("writer", 5, sp, func(th *Thread) {
		th.WaitAtLeast(ev, 1)
		th.Sim().Advance(3 * core.DefaultT1)
		th.Write(va, 77) // reclaims proc 0's stale copy (queued: inactive)
		th.Write(ev, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.System().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoThreadsOneProcessorShareActivation(t *testing.T) {
	// Activation is refcounted: two threads of one space on the same
	// processor; when one exits, the space must stay active for the
	// other.
	k := boot(t, nil)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("w", 1, core.Read|core.Write)
	short := k.Spawn("short", 2, sp, func(th *Thread) {
		th.Write(va, 1)
	})
	k.Spawn("long", 2, sp, func(th *Thread) {
		th.Join(short)
		th.Write(va, 2) // must not panic on a deactivated space
		if !sp.vs.Cmap().Active(2) {
			t.Error("space inactive on proc 2 while a thread still runs there")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiprogrammingTwoSpaces(t *testing.T) {
	// Two independent programs in separate address spaces share the
	// machine; each must compute correctly, and neither can see the
	// other's pages.
	k := boot(t, nil)
	spA, spB := k.NewSpace(), k.NewSpace()
	vaA, _ := spA.AllocWords("a-data", 512, core.Read|core.Write)
	vaB, _ := spB.AllocWords("b-data", 512, core.Read|core.Write)
	evA, _ := spA.AllocWords("a-ev", 1, core.Read|core.Write)
	evB, _ := spB.AllocWords("b-ev", 1, core.Read|core.Write)

	sum := func(va, ev int64, procs []int, sp *Space, out *uint32) {
		for idx, p := range procs {
			idx, p := idx, p
			k.Spawn("w", p, sp, func(th *Thread) {
				for i := idx; i < 512; i += len(procs) {
					th.Write(va+int64(i), uint32(i))
				}
				th.AtomicAdd(ev, 1)
				if idx == 0 {
					th.WaitAtLeast(ev, uint32(len(procs)))
					var s uint32
					buf := make([]uint32, 512)
					th.ReadRange(va, buf)
					for _, v := range buf {
						s += v
					}
					*out = s
				}
			})
		}
	}
	var sumA, sumB uint32
	sum(vaA, evA, []int{0, 2, 4}, spA, &sumA)
	sum(vaB, evB, []int{1, 3, 5}, spB, &sumB)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint32(512 * 511 / 2)
	if sumA != want || sumB != want {
		t.Fatalf("sums = %d/%d, want %d", sumA, sumB, want)
	}
	// Space B has no mapping for space A's addresses.
	if spB.vs.Cmap().Lookup(vaA/int64(k.PageWords())) != nil &&
		vaA != vaB {
		t.Error("space B can name space A's zone")
	}
	if err := k.System().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelTraceExposed(t *testing.T) {
	k := boot(t, nil)
	k.EnableTrace(100)
	sp := k.NewSpace()
	va, _ := sp.AllocWords("x", 1, core.Read|core.Write)
	k.Spawn("w", 0, sp, func(th *Thread) { th.Write(va, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	events, dropped := k.Trace()
	if len(events) == 0 || dropped != 0 {
		t.Fatalf("events=%d dropped=%d", len(events), dropped)
	}
	if events[0].Kind != core.EvWriteFault {
		t.Errorf("first event %v, want write-fault", events[0].Kind)
	}
}

func TestPortMultipleBlockedReceiversFIFO(t *testing.T) {
	// Receivers block in arrival order; messages are delivered to them
	// in that order.
	k := boot(t, nil)
	sp := k.NewSpace()
	p, _ := k.NewPort("fifo")
	got := make([]uint32, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("r%d", i), i+1, sp, func(th *Thread) {
			th.Compute(sim.Microsecond * sim.Time(i+1)) // arrival order 0,1,2
			got[i] = th.Receive(p)[0]
		})
	}
	k.Spawn("send", 0, sp, func(th *Thread) {
		th.Compute(sim.Millisecond)
		for v := uint32(1); v <= 3; v++ {
			th.Send(p, []uint32{v})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint32(i+1) {
			t.Fatalf("receiver %d got %d; delivery not FIFO (%v)", i, v, got)
		}
	}
}

func TestFatalTrapHaltsRun(t *testing.T) {
	// An unrecovered memory trap in a thread surfaces as a Run error
	// (the machine halts) rather than crashing the host process.
	k := boot(t, nil)
	sp := k.NewSpace()
	k.Spawn("bad", 0, sp, func(th *Thread) {
		th.Read(999999) // unmapped: fatal trap
	})
	err := k.Run()
	if err == nil {
		t.Fatal("Run succeeded despite a fatal trap")
	}
	var pe *sim.ThreadPanicError
	if !errors.As(err, &pe) || pe.Thread != "bad" {
		t.Fatalf("err = %v, want ThreadPanicError from \"bad\"", err)
	}
}
