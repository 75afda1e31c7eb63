package vm

import (
	"testing"

	"platinum/internal/core"
	"platinum/internal/mach"
	"platinum/internal/sim"
)

func newManager(t *testing.T) *Manager {
	t.Helper()
	mgr, _ := newManagerEngine(t)
	return mgr
}

// newManagerEngine returns a manager and the engine its machine runs on.
func newManagerEngine(t *testing.T) (*Manager, *sim.Engine) {
	t.Helper()
	e := sim.NewEngine()
	m, err := mach.New(e, mach.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(m, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(sys), e
}

func TestObjectCreationAndLookup(t *testing.T) {
	mgr := newManager(t)
	obj, err := mgr.NewObject("code", 4)
	if err != nil {
		t.Fatalf("NewObject: %v", err)
	}
	if obj.Pages() != 4 || obj.name != "code" {
		t.Fatalf("object = %q/%d pages", obj.name, obj.Pages())
	}
	if got, ok := mgr.LookupObject("code"); !ok || got != obj {
		t.Fatal("LookupObject failed")
	}
	if _, ok := mgr.LookupObject("nope"); ok {
		t.Fatal("LookupObject found nonexistent object")
	}
	if _, err := mgr.NewObject("code", 1); err == nil {
		t.Fatal("duplicate object name accepted")
	}
	if _, err := mgr.NewObject("empty", 0); err == nil {
		t.Fatal("zero-page object accepted")
	}
	// Pages are labeled for instrumentation.
	if l := obj.Cpage(2).Label(); l != "code[2]" {
		t.Fatalf("page label = %q, want code[2]", l)
	}
}

func TestMapValidatesRange(t *testing.T) {
	mgr := newManager(t)
	obj, _ := mgr.NewObject("o", 4)
	sp := mgr.NewSpace()
	cases := [][2]int{{-1, 2}, {0, 0}, {0, 5}, {3, 2}}
	for _, c := range cases {
		if err := sp.Map(obj, c[0], c[1], 10, core.Read); err == nil {
			t.Errorf("Map(first=%d, n=%d) accepted", c[0], c[1])
		}
	}
	if err := sp.Map(obj, 1, 3, 10, core.Read|core.Write); err != nil {
		t.Fatalf("valid Map failed: %v", err)
	}
	if len(sp.bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(sp.bindings))
	}
}

func TestMapRollsBackOnOverlap(t *testing.T) {
	mgr := newManager(t)
	a, _ := mgr.NewObject("a", 2)
	b, _ := mgr.NewObject("b", 3)
	sp := mgr.NewSpace()
	if err := sp.Map(a, 0, 2, 11, core.Read); err != nil {
		t.Fatal(err)
	}
	// b at vpn 10 would collide with a's page at vpn 11 on its second
	// page; the first page (vpn 10) must be rolled back.
	if err := sp.Map(b, 0, 3, 10, core.Read); err == nil {
		t.Fatal("overlapping Map accepted")
	}
	if sp.Cmap().Lookup(10) != nil {
		t.Fatal("partial mapping not rolled back")
	}
	if len(sp.bindings) != 1 {
		t.Fatalf("bindings = %d after failed map, want 1", len(sp.bindings))
	}
	// The rolled-back range can be mapped again.
	if err := sp.Map(b, 0, 1, 10, core.Read); err != nil {
		t.Fatalf("remap after rollback failed: %v", err)
	}
}

func TestMapAnywhereAdvances(t *testing.T) {
	mgr := newManager(t)
	sp := mgr.NewSpace()
	a, _ := mgr.NewObject("a", 3)
	b, _ := mgr.NewObject("b", 2)
	va, err := sp.MapAnywhere(a, core.Read)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := sp.MapAnywhere(b, core.Read)
	if err != nil {
		t.Fatal(err)
	}
	if vb < va+3 {
		t.Fatalf("second mapping at %d overlaps first at %d", vb, va)
	}
}

func TestSameObjectDifferentAddressesAndRights(t *testing.T) {
	mgr := newManager(t)
	obj, _ := mgr.NewObject("shared", 2)
	spA, spB := mgr.NewSpace(), mgr.NewSpace()
	if err := spA.Map(obj, 0, 2, 100, core.Read|core.Write); err != nil {
		t.Fatal(err)
	}
	if err := spB.Map(obj, 0, 2, 7, core.Read); err != nil {
		t.Fatal(err)
	}
	// Both spaces' Cmap entries reference the same coherent pages.
	ea, eb := spA.Cmap().Lookup(100), spB.Cmap().Lookup(7)
	if ea == nil || eb == nil {
		t.Fatal("entries missing")
	}
	if ea.Cpage() != eb.Cpage() {
		t.Fatal("same object page maps to different coherent pages")
	}
	if ea.Rights() == eb.Rights() {
		t.Fatal("rights should differ between the two bindings")
	}
}

func TestObjectMappableTwiceInOneSpace(t *testing.T) {
	// Two bindings of the same object in one space at different
	// addresses (aliasing) is legal in the Mach model.
	mgr := newManager(t)
	obj, _ := mgr.NewObject("alias", 1)
	sp := mgr.NewSpace()
	if err := sp.Map(obj, 0, 1, 5, core.Read); err != nil {
		t.Fatal(err)
	}
	if err := sp.Map(obj, 0, 1, 9, core.Read); err != nil {
		t.Fatalf("aliased mapping rejected: %v", err)
	}
	if sp.Cmap().Lookup(5).Cpage() != sp.Cmap().Lookup(9).Cpage() {
		t.Fatal("aliases disagree")
	}
}

func TestUnmapRemovesBinding(t *testing.T) {
	mgr, e := newManagerEngine(t)
	obj, _ := mgr.NewObject("gone", 3)
	sp := mgr.NewSpace()
	vpn, err := sp.MapAnywhere(obj, core.Read|core.Write)
	if err != nil {
		t.Fatal(err)
	}
	cm := sp.Cmap()
	cm.Activate(nil, 0)
	e.Spawn("driver", func(th *sim.Thread) {
		// Touch a page so there is a live translation to shoot down.
		if _, err := mgr.sys.Touch(th, 0, cm, vpn, true); err != nil {
			t.Errorf("Touch: %v", err)
			return
		}
		if err := sp.Unmap(th, 0, vpn); err != nil {
			t.Errorf("Unmap: %v", err)
			return
		}
		if cm.Lookup(vpn) != nil || cm.Lookup(vpn+2) != nil {
			t.Error("entries survived Unmap")
		}
		if len(sp.bindings) != 0 {
			t.Error("binding list not cleaned")
		}
		if err := sp.Unmap(th, 0, vpn); err == nil {
			t.Error("double Unmap succeeded")
		}
		// The range can be reused.
		obj2, _ := mgr.NewObject("fresh", 1)
		if err := sp.Map(obj2, 0, 1, vpn, core.Read); err != nil {
			t.Errorf("remap after Unmap: %v", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.sys.Validate(); err != nil {
		t.Fatal(err)
	}
}
