package baseline

import (
	"testing"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/sim"
)

func TestMeshPairwiseSendRecv(t *testing.T) {
	k, err := kernel.Boot(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(k, "m", 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := k.NewSpace()
	var got []uint32
	k.Spawn("p1", 1, sp, func(th *kernel.Thread) {
		got = m.Recv(th, 1, 0)
	})
	k.Spawn("p0", 0, sp, func(th *kernel.Thread) {
		m.Send(th, 0, 1, []uint32{9, 8, 7})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 9 {
		t.Fatalf("got %v", got)
	}
}

func TestBcastReachesEveryMember(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16} {
		for root := 0; root < n; root += 3 {
			k, err := kernel.Boot(kernel.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMesh(k, "b", n)
			if err != nil {
				t.Fatal(err)
			}
			sp := k.NewSpace()
			results := make([][]uint32, n)
			payload := []uint32{42, uint32(n)}
			for me := 0; me < n; me++ {
				me := me
				k.Spawn("m", me, sp, func(th *kernel.Thread) {
					var msg []uint32
					if me == root {
						msg = payload
					}
					results[me] = m.Bcast(th, me, root, msg)
				})
			}
			if err := k.Run(); err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			for me, r := range results {
				if len(r) != 2 || r[0] != 42 || r[1] != uint32(n) {
					t.Fatalf("n=%d root=%d member %d got %v", n, root, me, r)
				}
			}
		}
	}
}

func TestBcastIsLogDepth(t *testing.T) {
	// With 16 members the root sends only ceil(log2(16)) = 4 messages;
	// a naive broadcast would cost it 15 sends. Check the root's elapsed
	// time reflects the tree.
	k, err := kernel.Boot(kernel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	m, _ := NewMesh(k, "b", n)
	sp := k.NewSpace()
	var rootTime sim.Time
	for me := 0; me < n; me++ {
		me := me
		k.Spawn("m", me, sp, func(th *kernel.Thread) {
			var msg []uint32
			if me == 0 {
				msg = []uint32{1}
			}
			m.Bcast(th, me, 0, msg)
			if me == 0 {
				rootTime = th.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	perMsg := 150*sim.Microsecond + 550*sim.Nanosecond // the kernel's port cost for one word
	if rootTime > 5*perMsg {
		t.Fatalf("root spent %v broadcasting, want <= ~4 sends (%v)", rootTime, 4*perMsg)
	}
}

func TestUniformSystemNeverMoves(t *testing.T) {
	k, err := kernel.Boot(UniformSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp := k.NewSpace()
	npages := 8
	va, err := sp.AllocPages("matrix", npages, core.Read|core.Write)
	if err != nil {
		t.Fatal(err)
	}
	pw := int64(k.PageWords())
	for i := 0; i < npages; i++ {
		if err := sp.PlaceAt(va+int64(i)*pw, i%k.Nodes()); err != nil {
			t.Fatalf("PlaceAt page %d: %v", i, err)
		}
	}
	k.Spawn("w", 3, sp, func(th *kernel.Thread) {
		for i := 0; i < npages; i++ {
			th.Write(va+int64(i)*pw, uint32(i))
		}
		th.Sim().Advance(3 * core.DefaultT1)
		for i := 0; i < npages; i++ {
			if v := th.Read(va + int64(i)*pw); v != uint32(i) {
				t.Errorf("page %d = %d", i, v)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Pages must still be on their scattered homes with zero movement.
	obj, _ := k.Manager().LookupObject("matrix")
	for i := 0; i < npages; i++ {
		cp := obj.Cpage(i)
		copies := cp.Copies()
		if len(copies) != 1 || copies[0].Module != i%k.Nodes() {
			t.Errorf("page %d copies %v, want single copy on module %d", i, copies, i%k.Nodes())
		}
		if cp.Stats.Replications+cp.Stats.Migrations != 0 {
			t.Errorf("page %d moved", i)
		}
	}
}
