package exp

import (
	"fmt"

	"platinum/internal/core"
	"platinum/internal/kernel"
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

// opsFixture boots a machine and maps a fresh page per scenario.
type opsFixture struct {
	k  *kernel.Kernel
	cm *core.Cmap
	s  *core.System
}

func newOpsFixture() (*opsFixture, error) {
	k, err := kernel.Boot(kernel.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := k.System()
	cm := s.NewCmap()
	for p := 0; p < k.Nodes(); p++ {
		cm.Activate(nil, p)
	}
	return &opsFixture{k: k, cm: cm, s: s}, nil
}

// measureOp runs setup and op on a driver thread and returns op's
// cost, or the first error setup or op returns: a failed fault fails
// the scenario rather than timing it.
func (fx *opsFixture) measureOp(setup, op func(th *sim.Thread) error) (sim.Time, error) {
	var cost sim.Time
	var opErr error
	fx.k.Engine().Spawn("measure", func(th *sim.Thread) {
		if opErr = setup(th); opErr != nil {
			return
		}
		th.Charge(sim.CauseSync, 3*core.DefaultT1) // quiet period
		start := th.Now()
		opErr = op(th)
		cost = th.Now() - start
	})
	if err := fx.k.Engine().Run(); err != nil {
		return 0, err
	}
	if opErr != nil {
		return 0, opErr
	}
	return cost, nil
}

func (fx *opsFixture) page(vpn int64) (*core.Cpage, error) {
	cp := fx.s.NewCpage()
	_, err := fx.cm.Enter(vpn, cp, core.Read|core.Write)
	return cp, err
}

func (fx *opsFixture) touch(th *sim.Thread, proc int, vpn int64, write bool) error {
	_, err := fx.s.Touch(th, proc, fx.cm, vpn, write)
	return err
}

func runBasicOps(o Options) (*Table, error) {
	t := &Table{
		ID:     "basic-ops",
		Title:  "basic coherent memory operations (measured vs paper)",
		Header: []string{"operation", "measured", "paper"},
	}
	mc := mach.DefaultConfig()

	// Each scenario boots its own machine, so they are independent jobs.
	pageCopy := func() (sim.Time, error) {
		fx, err := newOpsFixture()
		if err != nil {
			return 0, err
		}
		var d sim.Time
		fx.k.Engine().Spawn("copy", func(th *sim.Thread) {
			d = fx.k.Machine().BlockTransfer(th, 1, 0, mc.PageWords)
		})
		if err := fx.k.Engine().Run(); err != nil {
			return 0, err
		}
		return d, nil
	}
	// Cpage homes are assigned round-robin from 0: vpn 0 -> home 0,
	// vpn 1 -> home 1. Faulting from proc 1 makes home 0 remote and
	// home 1 local.
	readMiss := func(remoteKernel bool) func() (sim.Time, error) {
		return func() (sim.Time, error) {
			fx, err := newOpsFixture()
			if err != nil {
				return 0, err
			}
			var vpn int64
			if remoteKernel {
				vpn = 0
			} else {
				vpn = 1
			}
			if _, err := fx.page(0); err != nil {
				return 0, err
			}
			if _, err := fx.page(1); err != nil {
				return 0, err
			}
			return fx.measureOp(
				func(th *sim.Thread) error { return fx.touch(th, 0, vpn, false) },
				func(th *sim.Thread) error { return fx.touch(th, 1, vpn, false) },
			)
		}
	}
	replicateModified := func() (sim.Time, error) {
		fx, err := newOpsFixture()
		if err != nil {
			return 0, err
		}
		if _, err := fx.page(0); err != nil {
			return 0, err
		}
		return fx.measureOp(
			func(th *sim.Thread) error { return fx.touch(th, 0, 0, true) },
			func(th *sim.Thread) error { return fx.touch(th, 1, 0, false) },
		)
	}
	writeMiss := func() (sim.Time, error) {
		fx, err := newOpsFixture()
		if err != nil {
			return 0, err
		}
		if _, err := fx.page(0); err != nil {
			return 0, err
		}
		return fx.measureOp(
			func(th *sim.Thread) error {
				if err := fx.touch(th, 0, 0, false); err != nil {
					return err
				}
				th.Charge(sim.CauseSync, 3*core.DefaultT1)
				return fx.touch(th, 1, 0, false)
			},
			func(th *sim.Thread) error { return fx.touch(th, 0, 0, true) },
		)
	}
	shootdownCost := func(readers int) func() (sim.Time, error) {
		return func() (sim.Time, error) {
			fx, err := newOpsFixture()
			if err != nil {
				return 0, err
			}
			if _, err := fx.page(0); err != nil {
				return 0, err
			}
			return fx.measureOp(
				func(th *sim.Thread) error {
					if err := fx.touch(th, 0, 0, false); err != nil {
						return err
					}
					th.Charge(sim.CauseSync, 3*core.DefaultT1)
					for r := 1; r <= readers; r++ {
						if err := fx.touch(th, r, 0, false); err != nil {
							return err
						}
					}
					return nil
				},
				func(th *sim.Thread) error { return fx.touch(th, 0, 0, true) },
			)
		}
	}

	jobs := []func() (sim.Time, error){
		pageCopy, readMiss(false), readMiss(true), replicateModified,
		writeMiss, shootdownCost(1), shootdownCost(15),
	}
	measured := make([]sim.Time, len(jobs))
	err := forEach(o, len(jobs), func(i int) error {
		d, err := jobs[i]()
		measured[i] = d
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
	add("incremental cost per extra shootdown target", (measured[6]-measured[5])/14,
		"<= 17 µs (vs 55 µs in Mach on the Multimax)")

	t.Notes = append(t.Notes,
		fmt.Sprintf("machine: %d nodes, T_l=%v, T_r=%v, T_b=%v/word",
			mc.Nodes, mc.LocalRead, mc.RemoteRead, mc.BlockCopyPerWord))
	return t, nil
}
