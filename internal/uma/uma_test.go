package uma

import (
	"testing"

	"platinum/internal/sim"
)

func newMachine() *Machine { return New(sim.NewEngine()) }

func TestReadWriteRoundTrip(t *testing.T) {
	m := newMachine()
	va := m.Alloc(64)
	m.Spawn("w", 0, func(th *Thread) {
		th.Write(va+5, 123)
		if v := th.Read(va + 5); v != 123 {
			t.Errorf("read back %d, want 123", v)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitsAfterFill(t *testing.T) {
	m := newMachine()
	va := m.Alloc(lineWords)
	var first, second sim.Time
	m.Spawn("r", 0, func(th *Thread) {
		s0 := th.st.Now()
		th.Read(va) // miss, fills line
		first = th.st.Now() - s0
		s1 := th.st.Now()
		th.Read(va + 1) // same line: hit
		second = th.st.Now() - s1
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if first != missLatency {
		t.Errorf("miss cost %v, want %v", first, missLatency)
	}
	if second != hitTime {
		t.Errorf("hit cost %v, want %v", second, hitTime)
	}
}

func TestWriteInvalidatesOtherCaches(t *testing.T) {
	m := newMachine()
	va := m.Alloc(lineWords)
	var reread sim.Time
	m.Spawn("a", 0, func(th *Thread) {
		th.Read(va) // fill in cache 0
		th.Compute(10 * sim.Microsecond)
		s := th.st.Now()
		if v := th.Read(va); v != 77 {
			t.Errorf("stale read %d, want 77", v)
		}
		reread = th.st.Now() - s
	})
	m.Spawn("b", 1, func(th *Thread) {
		th.Compute(5 * sim.Microsecond)
		th.Write(va, 77) // invalidates cache 0's line
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if reread < missLatency {
		t.Errorf("re-read after invalidation cost %v, want a miss (>= %v)", reread, missLatency)
	}
}

func TestSmallCacheEvicts(t *testing.T) {
	// Touch more lines than the cache holds: re-reading the first line
	// must miss again (the Symmetry's 8KB cache can't hold merge data).
	m := newMachine()
	span := (cacheLines + 1) * lineWords
	va := m.Alloc(span)
	m.Spawn("r", 0, func(th *Thread) {
		buf := make([]uint32, span)
		th.ReadRange(va, buf)
		s := th.st.Now()
		th.Read(va) // evicted by the wrap-around line
		if d := th.st.Now() - s; d < missLatency {
			t.Errorf("read of evicted line cost %v, want miss", d)
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBusContentionSerializesWrites(t *testing.T) {
	m := newMachine()
	const words = 2000
	va := m.Alloc(words * 4)
	finish := make([]sim.Time, 4)
	for p := 0; p < 4; p++ {
		p := p
		m.Spawn("w", p, func(th *Thread) {
			th.WriteRange(va+int64(p*words), make([]uint32, words))
			finish[p] = th.st.Now()
		})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// With 4 writers the bus carries 4x the write traffic; the last
	// finisher must be visibly delayed past the contention-free time.
	free := sim.Time(words) * writeLatency
	max := finish[0]
	for _, f := range finish[1:] {
		if f > max {
			max = f
		}
	}
	if max <= free {
		t.Errorf("no bus contention visible: max finish %v <= contention-free %v", max, free)
	}
}

func TestAtomicAddSerializes(t *testing.T) {
	m := newMachine()
	va := m.Alloc(1)
	for p := 0; p < 4; p++ {
		m.Spawn("inc", p, func(th *Thread) {
			for i := 0; i < 25; i++ {
				th.AtomicAdd(va, 1)
			}
		})
	}
	var final uint32
	m.Spawn("check", 5, func(th *Thread) {
		final = th.WaitAtLeast(va, 100)
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if final != 100 {
		t.Fatalf("counter = %d, want 100", final)
	}
}

func TestRangeOpsMoveData(t *testing.T) {
	m := newMachine()
	va := m.Alloc(1000)
	m.Spawn("w", 0, func(th *Thread) {
		src := make([]uint32, 1000)
		for i := range src {
			src[i] = uint32(i)
		}
		th.WriteRange(va, src)
		dst := make([]uint32, 1000)
		th.ReadRange(va, dst)
		for i := range dst {
			if dst[i] != uint32(i) {
				t.Errorf("word %d = %d", i, dst[i])
				return
			}
		}
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
