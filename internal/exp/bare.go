package exp

import (
	"platinum/internal/core"
	"platinum/internal/mach"
	"platinum/internal/sim"
)

// The §4 microbenchmarks (basic-ops, table1-empirical) time protocol
// operations, not programs, so they run on a bareCore instead of a
// runAll platform. This file is the only one in the package that
// builds a machine itself; TestOnlyExecutorBootsPlatforms keeps it so.

// bareCore is the paper's machine and coherent memory system with no
// kernel, so no defrost daemon and no kernel thread runs: one Cmap,
// active on every processor, maps pages 0 to n-1, each to a fresh
// Cpage. Cpage homes go round-robin from module 0, so page 0's home is
// remote to processor 1 and page 1's is local to it.
type bareCore struct {
	m  *mach.Machine
	s  *core.System
	cm *core.Cmap
}

// newBareCore builds a bareCore of n pages of pageWords words under
// policy pol (nil: the PLATINUM policy).
func newBareCore(pageWords int, pol core.Policy, n int) (*bareCore, error) {
	mc := mach.DefaultConfig()
	mc.PageWords = pageWords
	cc := core.DefaultConfig()
	cc.Policy = pol
	m, err := mach.New(sim.NewEngine(), mc)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSystem(m, cc)
	if err != nil {
		return nil, err
	}
	cm := s.NewCmap()
	for p := 0; p < m.Nodes(); p++ {
		cm.Activate(nil, p)
	}
	for vpn := int64(0); vpn < int64(n); vpn++ {
		if _, err := cm.Enter(vpn, s.NewCpage(), core.Read|core.Write); err != nil {
			return nil, err
		}
	}
	return &bareCore{m: m, s: s, cm: cm}, nil
}

// drive runs body on one driver thread until the simulation ends and
// returns the engine's error, else body's.
func (b *bareCore) drive(body func(th *sim.Thread) error) error {
	var bodyErr error
	b.m.Engine().Spawn("driver", func(th *sim.Thread) { bodyErr = body(th) })
	if err := b.m.Engine().Run(); err != nil {
		return err
	}
	return bodyErr
}
