package exp

import (
	"fmt"

	"platinum/internal/core"
	"platinum/internal/mach"
	"platinum/internal/sim"
)

// basic-ops regenerates §4's measurements of the fundamental coherent
// memory operations, alongside the ranges the paper reports for the
// Butterfly Plus.

func init() {
	register(Experiment{
		ID:    "basic-ops",
		Paper: "§4 basic operation timings",
		Run:   runBasicOps,
	})
}

// ref is one reference by processor proc to page vpn.
type ref struct {
	proc  int
	vpn   int64
	write bool
}

// opScenario times one reference on a bareCore of pages pages: the
// driver makes the references of each setup phase in turn, waiting
// 3·t1 after each so that no page was invalidated within the policy's
// window, and then makes op.
type opScenario struct {
	pages int
	setup [][]ref
	op    ref
}

// measure runs s on a fresh bareCore and returns op's cost, or the
// first error a reference returns: a failed fault fails the scenario
// rather than timing it.
func (s opScenario) measure() (sim.Time, error) {
	b, err := newBareCore(mach.DefaultConfig().PageWords, nil, s.pages)
	if err != nil {
		return 0, err
	}
	touch := func(th *sim.Thread, r ref) error {
		_, err := b.s.Touch(th, r.proc, b.cm, r.vpn, r.write)
		return err
	}
	var cost sim.Time
	err = b.drive(func(th *sim.Thread) error {
		for _, phase := range s.setup {
			for _, r := range phase {
				if err := touch(th, r); err != nil {
					return err
				}
			}
			th.Charge(sim.CauseSync, 3*core.DefaultT1) // quiet period
		}
		start := th.Now()
		err := touch(th, s.op)
		cost = th.Now() - start
		return err
	})
	return cost, err
}

func runBasicOps(o Options) (*Table, error) {
	t := &Table{
		ID:     "basic-ops",
		Title:  "basic coherent memory operations (measured vs paper)",
		Header: []string{"operation", "measured", "paper"},
	}
	mc := mach.DefaultConfig()

	pageCopy := func() (sim.Time, error) {
		b, err := newBareCore(mc.PageWords, nil, 0)
		if err != nil {
			return 0, err
		}
		var d sim.Time
		err = b.drive(func(th *sim.Thread) error {
			d = b.m.BlockTransfer(th, 1, 0, mc.PageWords)
			return nil
		})
		return d, err
	}
	readers := make([]ref, 15) // processors 1 to 15 read page 0
	for i := range readers {
		readers[i].proc = i + 1
	}
	jobs := []func() (sim.Time, error){pageCopy}
	for _, s := range []opScenario{
		// Processor 1 read-faults a page processor 0 read, whose
		// kernel data (its Cpage) is homed local to processor 1, then
		// remote; then a page processor 0 wrote.
		{pages: 2, setup: [][]ref{{{vpn: 1}}}, op: ref{proc: 1, vpn: 1}},
		{pages: 2, setup: [][]ref{{{}}}, op: ref{proc: 1}},
		{pages: 1, setup: [][]ref{{{write: true}}}, op: ref{proc: 1}},
		// Processor 0 write-faults a page one reader also maps (the
		// write miss), then one that 15 do: the difference is 14
		// extra shootdown targets.
		{pages: 1, setup: [][]ref{{{}}, readers[:1]}, op: ref{write: true}},
		{pages: 1, setup: [][]ref{{{}}, readers}, op: ref{write: true}},
	} {
		jobs = append(jobs, s.measure)
	}
	measured := make([]sim.Time, len(jobs))
	err := forEach(o, len(jobs), func(i int) (err error) {
		measured[i], err = jobs[i]()
		return err
	})
	if err != nil {
		return nil, err
	}

	add := func(name string, measured sim.Time, paper string) {
		t.Rows = append(t.Rows, []string{name, measured.String(), paper})
	}
	add("page copy (4KB block transfer)", measured[0], "1.11 ms")
	add("read miss, replicate non-modified (kernel data local)", measured[1], "1.34 ms")
	add("read miss, replicate non-modified (kernel data remote)", measured[2], "1.38 ms")
	add("read miss, replicate modified (1 writer restricted)", measured[3], "1.38-1.59 ms")
	add("write miss on present+ (1 invalidation, 1 free)", measured[4], "0.25-0.45 ms")
	add("incremental cost per extra shootdown target", (measured[5]-measured[4])/14,
		"<= 17 µs (vs 55 µs in Mach on the Multimax)")

	t.Notes = append(t.Notes,
		fmt.Sprintf("machine: %d nodes, T_l=%v, T_r=%v, T_b=%v/word",
			mc.Nodes, mc.LocalRead, mc.RemoteRead, mc.BlockCopyPerWord))
	return t, nil
}
