package exp

import (
	"fmt"
	"math"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/model"
	"platinum/internal/sim"
)

// sim1 converts a float nanosecond count back to sim.Time.
func sim1(ns float64) sim.Time { return sim.Time(int64(ns)) }

// machine-generations compares the first-generation Butterfly against
// the Butterfly Plus through the lens of §4.1: the ratio T_b/(T_r−T_l)
// "puts a lower bound on the minimum reference density for which
// migration makes sense", and the Plus's fast block transfer is what
// makes page migration economical at all. The experiment evaluates the
// model's break-even constants for both machines and runs Gaussian
// elimination on both.

func init() {
	register(Experiment{
		ID:    "machine-generations",
		Paper: "§4.1/§7 (why the block-transfer ratio decides everything)",
		Run:   runGenerations,
	})
}

// generationParams derives §4.1 model parameters from a machine config,
// using the same fixed-overhead decomposition as the simulator.
func generationParams(mc mach.Config, scale float64) model.Params {
	cc := core.DefaultConfig()
	f := cc.FaultBase + cc.FrameAlloc + cc.ShootdownPost + cc.ShootdownSync +
		cc.FrameFree + cc.MapInstall
	return model.Params{
		Tl: mc.LocalRead,
		Tr: mc.RemoteRead,
		Tb: mc.BlockCopyPerWord,
		F:  sim1(float64(f) * scale),
	}
}

func runGenerations(o Options) (*Table, error) {
	n, pw := gaussSize(o)
	t := &Table{
		ID:    "machine-generations",
		Title: "Butterfly 1 vs Butterfly Plus: migration economics and gauss",
		Header: []string{"machine", "Tb/(Tr-Tl)", "S_min(rho=1,g=1)",
			"gauss T(16)", "gauss speedup"},
		Notes: []string{
			"§4.1: the block-transfer-to-latency-saving ratio bounds the",
			"density below which migration can never pay; the Plus's fast",
			"transfer engine (and 15:1 remote:local ratio) is what makes",
			"page migration economical — the first generation's ~5:1 ratio",
			"left far less to win",
		},
	}
	gens := []struct {
		label         string
		mc            mach.Config
		overheadScale float64
	}{
		{"Butterfly 1", mach.Butterfly1Config(), butterfly1Scale},
		{"Butterfly Plus", mach.DefaultConfig(), 1.0},
	}
	// One run per (generation, processor count) pair. The Butterfly
	// Plus is the paper's machine: its runs are fig1's.
	specs := []runSpec{
		butterfly1Gauss(n, pw, 1), butterfly1Gauss(n, pw, 16),
		gaussSpec(o, gaussPlatinum, 1), gaussSpec(o, gaussPlatinum, 16),
	}
	res, err := runAll(o, specs)
	if err != nil {
		return nil, err
	}
	for i, g := range gens {
		params := generationParams(g.mc, g.overheadScale)
		smin1 := params.SMin(1.0, 1.0)
		sminStr := "never"
		if !math.IsInf(smin1, 1) {
			sminStr = fmt.Sprintf("%.0f", smin1)
		}
		t1, t16 := res[2*i].elapsed, res[2*i+1].elapsed
		t.Rows = append(t.Rows, []string{
			g.label,
			fmt.Sprintf("%.3f", params.Coefficient()),
			sminStr,
			t16.String(),
			f2(float64(t1) / float64(t16)),
		})
	}
	return t, nil
}

// butterfly1Scale is how much slower the first-generation Butterfly's
// 68000-class processors were: its kernel fixed overheads and
// arithmetic scale by it.
const butterfly1Scale = 2.0

// butterfly1Gauss is an n×n Gaussian elimination on procs processors
// of the first-generation Butterfly with pw-word pages, booted fresh.
func butterfly1Gauss(n, pw, procs int) runSpec {
	kcfg := kernel.DefaultConfig()
	kcfg.Machine = mach.Butterfly1Config()
	kcfg.Machine.PageWords = pw
	scaleOverheads(&kcfg.Core, butterfly1Scale)
	cfg := apps.DefaultGaussConfig(n, procs)
	// Slower processors: scale the arithmetic too.
	cfg.OpCost = sim1(float64(cfg.OpCost) * butterfly1Scale)
	return runSpec{prog: gaussPlatinum, app: cfg, kcfg: kcfg, fresh: true}
}

// scaleOverheads multiplies the kernel's fixed fault-handling costs.
func scaleOverheads(cc *core.Config, scale float64) {
	cc.FaultBase = sim1(float64(cc.FaultBase) * scale)
	cc.MapInstall = sim1(float64(cc.MapInstall) * scale)
	cc.FrameAlloc = sim1(float64(cc.FrameAlloc) * scale)
	cc.FrameFree = sim1(float64(cc.FrameFree) * scale)
	cc.ShootdownPost = sim1(float64(cc.ShootdownPost) * scale)
	cc.ShootdownSync = sim1(float64(cc.ShootdownSync) * scale)
	cc.KernelRemotePenalty = sim1(float64(cc.KernelRemotePenalty) * scale)
}
