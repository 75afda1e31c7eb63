package mach

import (
	"testing"
	"testing/quick"

	"platinum/internal/sim"
)

func newTestMachine(t *testing.T, cfg Config) (*sim.Engine, *Machine) {
	t.Helper()
	e := sim.NewEngine()
	m, err := New(e, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, m
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if got := DefaultConfig().PageBytes(); got != 4096 {
		t.Fatalf("PageBytes = %d, want 4096", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Nodes = MaxNodes + 1 },
		func(c *Config) { c.PageWords = -1 },
		func(c *Config) { c.LocalRead = 0 },
		func(c *Config) { c.RemoteRead = c.LocalRead - 1 },
		func(c *Config) { c.BlockCopyPerWord = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
}

func TestLocalVsRemoteLatency(t *testing.T) {
	e, m := newTestMachine(t, DefaultConfig())
	var local, remote sim.Time
	e.Spawn("p0", func(th *sim.Thread) {
		local = m.Access(th, 0, 0, 1, false)
		remote = m.Access(th, 0, 1, 1, false)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if local != 320 {
		t.Errorf("local read = %v, want 320ns", local)
	}
	if remote != 5000 {
		t.Errorf("remote read = %v, want 5000ns", remote)
	}
}

func TestPageCopyTakes1_11ms(t *testing.T) {
	// §4: copying a 4 KB page takes 1.11 ms in the absence of contention.
	e, m := newTestMachine(t, DefaultConfig())
	var d sim.Time
	e.Spawn("p0", func(th *sim.Thread) {
		d = m.BlockTransfer(th, 1, 0, m.Config().PageWords)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := 1100 * sim.Nanosecond * 1024 // 1.1264 ms
	if d != want {
		t.Errorf("page copy = %v, want %v", d, want)
	}
}

func TestModuleContentionSerializes(t *testing.T) {
	// Two processors reading the same remote module back-to-back: the
	// second queues behind the first's occupancy.
	cfg := DefaultConfig()
	e, m := newTestMachine(t, cfg)
	delays := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		proc := i + 1 // procs 1 and 2 both hit module 0
		e.Spawn("p", func(th *sim.Thread) {
			delays[i] = m.Access(th, proc, 0, 100, false)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	base := cfg.RemoteRead * 100
	if delays[0] != base {
		t.Errorf("first requester delayed %v, want %v", delays[0], base)
	}
	wantQueue := cfg.RemoteOccupancy * 100
	if delays[1] != base+wantQueue {
		t.Errorf("second requester delayed %v, want %v", delays[1], base+wantQueue)
	}
}

func TestBlockTransfersSerializeAtSource(t *testing.T) {
	// Two simultaneous replications from the same source page serialize:
	// this is the §5.1 pivot-row effect.
	cfg := DefaultConfig()
	e, m := newTestMachine(t, cfg)
	finish := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		dst := i + 1
		e.Spawn("p", func(th *sim.Thread) {
			m.BlockTransfer(th, 0, dst, cfg.PageWords)
			finish[i] = th.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	one := cfg.BlockCopyPerWord * sim.Time(cfg.PageWords)
	if finish[0] != one {
		t.Errorf("first transfer finished at %v, want %v", finish[0], one)
	}
	if finish[1] != 2*one {
		t.Errorf("second transfer finished at %v, want %v (serialized)", finish[1], 2*one)
	}
}

func TestBlockTransferWaitsForBothModules(t *testing.T) {
	cfg := DefaultConfig()
	e, m := newTestMachine(t, cfg)
	var d sim.Time
	e.Spawn("busy-dst", func(th *sim.Thread) {
		// Occupy module 2 with local work first.
		m.Access(th, 2, 2, 1000, true)
	})
	e.Spawn("xfer", func(th *sim.Thread) {
		th.Yield() // let busy-dst issue first (same clock, lower id runs first anyway)
		d = m.BlockTransfer(th, 1, 2, 10)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Transfer must queue behind module 2's 1000-word occupancy.
	minQueue := cfg.LocalOccupancy * 1000
	want := minQueue + cfg.BlockCopyPerWord*10
	if d != want {
		t.Errorf("transfer delay = %v, want %v", d, want)
	}
}

func TestAccessFreeOccupiesModule(t *testing.T) {
	cfg := DefaultConfig()
	e, m := newTestMachine(t, cfg)
	e.Spawn("p0", func(th *sim.Thread) {
		d := m.AccessFree(th.Now(), 0, 1, 10, false)
		if d != cfg.RemoteRead*10 {
			t.Errorf("AccessFree delay = %v, want %v", d, cfg.RemoteRead*10)
		}
		// Module 1 should now be occupied.
		d2 := m.AccessFree(th.Now(), 0, 1, 1, false)
		if d2 != cfg.RemoteOccupancy*10+cfg.RemoteRead {
			t.Errorf("second AccessFree = %v, want queued %v",
				d2, cfg.RemoteOccupancy*10+cfg.RemoteRead)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestZeroWordOpsAreFree(t *testing.T) {
	e, m := newTestMachine(t, DefaultConfig())
	e.Spawn("p0", func(th *sim.Thread) {
		if d := m.Access(th, 0, 0, 0, false); d != 0 {
			t.Errorf("zero-word access cost %v", d)
		}
		if d := m.BlockTransfer(th, 0, 1, 0); d != 0 {
			t.Errorf("zero-word transfer cost %v", d)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e, m := newTestMachine(t, DefaultConfig())
	e.Spawn("p0", func(th *sim.Thread) {
		m.Access(th, 0, 1, 5, false)
		m.Access(th, 1, 1, 3, true)
		m.BlockTransfer(th, 1, 0, 7)
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := m.Stats()
	if st[1].Accesses != 2 {
		t.Errorf("module 1 accesses = %d, want 2", st[1].Accesses)
	}
	if st[1].Words != 5+3+7 {
		t.Errorf("module 1 words = %d, want 15", st[1].Words)
	}
	if st[0].Words != 7 {
		t.Errorf("module 0 words = %d, want 7", st[0].Words)
	}
}

// Property: access delay is always >= the contention-free latency, and
// module busy time equals the sum of charged occupancies.
func TestPropertyDelayAtLeastLatency(t *testing.T) {
	cfg := DefaultConfig()
	f := func(ops []struct {
		Proc, Mod uint8
		N         uint8
		Write     bool
	}) bool {
		e := sim.NewEngine()
		m, err := New(e, cfg)
		if err != nil {
			return false
		}
		ok := true
		e.Spawn("p", func(th *sim.Thread) {
			for _, op := range ops {
				proc := int(op.Proc) % cfg.Nodes
				mod := int(op.Mod) % cfg.Nodes
				n := int(op.N)%64 + 1
				lat, _ := m.wordCost(proc, mod, n, op.Write)
				if d := m.Access(th, proc, mod, n, op.Write); d < lat {
					ok = false
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockXferOccupancyAllowsOverlap(t *testing.T) {
	// With 25% occupancy, a second transfer from the same source starts
	// after only a quarter of the first's duration.
	cfg := DefaultConfig()
	cfg.BlockXferOccupancy = 250
	e, m := newTestMachine(t, cfg)
	finish := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		dst := i + 1
		e.Spawn("p", func(th *sim.Thread) {
			m.BlockTransfer(th, 0, dst, cfg.PageWords)
			finish[i] = th.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	one := cfg.BlockCopyPerWord * sim.Time(cfg.PageWords)
	if finish[0] != one {
		t.Errorf("first transfer finished at %v, want %v", finish[0], one)
	}
	want := one/4 + one // starts at 25% of first, runs full duration
	if finish[1] != want {
		t.Errorf("second transfer finished at %v, want %v (overlapped)", finish[1], want)
	}
}

func TestBlockXferOccupancyZeroMeansFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockXferOccupancy = 0 // zero-value config keeps paper semantics
	e, m := newTestMachine(t, cfg)
	finish := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("p", func(th *sim.Thread) {
			m.BlockTransfer(th, 0, i+1, cfg.PageWords)
			finish[i] = th.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	one := cfg.BlockCopyPerWord * sim.Time(cfg.PageWords)
	if finish[1] != 2*one {
		t.Errorf("second transfer finished at %v, want fully serialized %v", finish[1], 2*one)
	}
}

func TestButterfly1ConfigValid(t *testing.T) {
	cfg := Butterfly1Config()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Butterfly1Config invalid: %v", err)
	}
	// §4.1's key ratio must be much worse on the first generation.
	plus := DefaultConfig()
	r1 := float64(cfg.BlockCopyPerWord) / float64(cfg.RemoteRead-cfg.LocalRead)
	rp := float64(plus.BlockCopyPerWord) / float64(plus.RemoteRead-plus.LocalRead)
	if r1 < 2*rp {
		t.Fatalf("generation ratio %f not clearly worse than Plus %f", r1, rp)
	}
}
