package core

import (
	"fmt"
	"strings"
	"testing"

	"platinum/internal/mach"
	"platinum/internal/sim"
)

func TestStringers(t *testing.T) {
	cases := map[string]string{
		Rights(0).String():      "none",
		Read.String():           "r",
		Write.String():          "w",
		(Read | Write).String(): "rw",
		Rights(8).String():      "Rights(8)",
		Empty.String():          "empty",
		Present1.String():       "present1",
		PresentPlus.String():    "present+",
		Modified.String():       "modified",
		State(9).String():       "State(9)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

func TestErrorMessages(t *testing.T) {
	for _, e := range []error{
		&ErrProtection{Proc: 1, VPN: 2, Want: Write, Grant: Read},
		&ErrNoMemory{VPN: 3},
		&ErrUnmapped{Proc: 4, VPN: 5},
	} {
		if e.Error() == "" || !strings.Contains(e.Error(), "core:") {
			t.Errorf("error %T message %q", e, e.Error())
		}
	}
}

func TestRightsAllows(t *testing.T) {
	if !Read.Allows(Read) || Read.Allows(Write) {
		t.Error("Read rights wrong")
	}
	rw := Read | Write
	if !rw.Allows(Read) || !rw.Allows(Write) || !rw.Allows(rw) {
		t.Error("RW rights wrong")
	}
}

func TestAccessorsAndLabels(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.s.NewCpage()
	if cp.Label() != "" {
		t.Errorf("unlabeled page has label %q", cp.Label())
	}
	cp.SetLabelIndexed("hello", 3)
	if cp.Label() != "hello[3]" || cp.ID() < 0 {
		t.Error("cpage accessors")
	}
}

func TestMaterializeAtErrors(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	if err := fx.s.MaterializeAt(cp, 99); err == nil {
		t.Error("bad module accepted")
	}
	if err := fx.s.MaterializeAt(cp, 3); err != nil {
		t.Fatalf("MaterializeAt: %v", err)
	}
	if cp.State() != Present1 {
		t.Errorf("state = %v", cp.State())
	}
	if err := fx.s.MaterializeAt(cp, 4); err == nil {
		t.Error("double materialize accepted")
	}
	// Exhausted module.
	fx2 := newFixture(t, func(_ *mach.Config, cc *Config) { cc.FramesPerModule = 1 })
	a, b := fx2.s.NewCpage(), fx2.s.NewCpage()
	if err := fx2.s.MaterializeAt(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := fx2.s.MaterializeAt(b, 0); err == nil {
		t.Error("materialize on full module accepted")
	}
}

func TestReportAndWriteTo(t *testing.T) {
	fx := newFixture(t, nil)
	cp := fx.mapPage(0, Read|Write)
	cp.SetLabelIndexed("page-zero", 0)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, true)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
	})
	r := fx.s.Report()
	if len(r.Pages) != 1 || r.Pages[0].Label != "page-zero[0]" {
		t.Fatalf("report pages: %+v", r.Pages)
	}
	if got := r.Pages[0].Faults(); got != cp.Stats.Faults() {
		t.Errorf("reported faults = %d, want %d", got, cp.Stats.Faults())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"page-zero[0]", "present+", "coherent memory report"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
	if len(fx.s.ATCStats()) != fx.m.Nodes() {
		t.Error("ATCStats length")
	}
}

// A label longer than the label column's 18-character minimum widens
// the column for every row, so each row's later columns stay at the
// header's offsets.
func TestReportWriteToFitsLongLabels(t *testing.T) {
	r := Report{Policy: "p", Pages: []PageReport{
		{ID: 1, Label: "bp-output-deltas[0]", State: Modified},
		{ID: 2, Label: "short", State: Modified},
	}}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	header := lines[1]
	for _, row := range lines[2:] {
		if got, want := strings.Index(row, "modified"), strings.Index(header, "state"); got != want || len(row) != len(header) {
			t.Errorf("row %q: state at %d and %d wide, want %d and %d like the header %q", row, got, len(row), want, len(header), header)
		}
	}
}

func TestATCEvictionFIFO(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) { cc.ATCEntries = 2 })
	for vpn := int64(0); vpn < 3; vpn++ {
		fx.mapPage(vpn, Read|Write)
	}
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		fx.touch(th, 0, 1, false)
		fx.touch(th, 0, 2, false) // evicts vpn 0 from the 2-entry ATC
		atc := fx.s.atcs[0]
		if _, ok := atc.lookup(fx.cm.id, 0); ok {
			t.Error("vpn 0 still resident after FIFO eviction")
		}
		if _, ok := atc.lookup(fx.cm.id, 2); !ok {
			t.Error("vpn 2 not resident")
		}
		// Re-touch vpn 0: ATC reload from the Pmap, costing ATCReload.
		before := th.Now()
		fx.touch(th, 0, 0, false)
		if d := th.Now() - before; d != fx.m.Config().ATCReload {
			t.Errorf("reload cost %v, want %v", d, fx.m.Config().ATCReload)
		}
	})
}

func TestChooseSourceLeastLoaded(t *testing.T) {
	fx := newFixture(t, func(_ *mach.Config, cc *Config) {
		cc.SourceSelection = SourceLeastLoaded
	})
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false) // copies on 0 and 1
		th.Advance(quiet)
		// Busy module 0 with a long access; the next replication must
		// source from module 1.
		fx.m.Access(th, 0, 0, 2000, true)
		before := fx.m.Module(1).Words
		fx.touch(th, 2, 0, false)
		if fx.m.Module(1).Words == before {
			t.Error("least-loaded source selection did not pick module 1")
		}
	})
}

func TestShootdownsCounter(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		fx.touch(th, 0, 0, false)
		th.Advance(quiet)
		fx.touch(th, 1, 0, false)
		before := fx.s.Shootdowns()
		fx.touch(th, 0, 0, true)
		if fx.s.Shootdowns() <= before {
			t.Error("reclaim did not count a shootdown")
		}
	})
}

func TestResolveAppliesAtomically(t *testing.T) {
	fx := newFixture(t, nil)
	fx.mapPage(0, Read|Write)
	fx.run(func(th *sim.Thread) {
		// Write through the apply closure on the fault path...
		if _, err := fx.s.Resolve(th, 0, fx.cm, 0, true, func(w []uint32) {
			w[3] = 12345
		}); err != nil {
			panic(err)
		}
		// ...then read through the ATC-hit path.
		var got uint32
		if _, err := fx.s.Resolve(th, 0, fx.cm, 0, false, func(w []uint32) {
			got = w[3]
		}); err != nil {
			panic(err)
		}
		if got != 12345 {
			panic(fmt.Sprintf("read back %d", got))
		}
		// And the Pmap-reload path (fresh ATC via a second processor
		// after replication).
		th.Advance(quiet)
		if _, err := fx.s.Resolve(th, 1, fx.cm, 0, false, func(w []uint32) {
			got = w[3]
		}); err != nil {
			panic(err)
		}
		if got != 12345 {
			panic(fmt.Sprintf("replica read back %d", got))
		}
	})
}
