package main

import (
	"fmt"
	"runtime"
	"time"

	"platinum/internal/core"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// A probe times one layer's public call on a fixed reference stream and
// returns nanoseconds per call. Every probe builds its own state, so
// probes share nothing with the workloads or each other.
type probe struct {
	name string
	ops  int
	run  func(ops int) (time.Duration, error)
}

var probes = []probe{
	{"probe.sim.advance_fast", 200000, probeAdvanceFast},
	{"probe.sim.handoff16", 32000, probeHandoff16},
	{"probe.sim.charge_telemetry", 200000, probeChargeTelemetry},
	{"probe.mach.access_local", 200000, func(n int) (time.Duration, error) {
		return probeAccess(n, mach.DefaultConfig(), nil, 0)
	}},
	{"probe.mach.access_remote", 200000, func(n int) (time.Duration, error) {
		return probeAccess(n, mach.DefaultConfig(), nil, 1)
	}},
	{"probe.mach.access_topo256", 200000, func(n int) (time.Duration, error) {
		return probeAccess(n, mach.Config{}, clusterTopology(), 255) // across clusters
	}},
	{"probe.core.touch_hit", 200000, probeTouchHit},
	{"probe.core.write_fault", 20000, probeWriteFault},
	{"probe.kernel.update_slice_page", 50000, probeUpdateSlicePage},
	{"probe.span.begin_end", 200000, probeSpanBeginEnd},
}

// probeReps is how many times each probe runs; the median is reported.
const probeReps = 5

// runProbes returns each probe's median ns per call. Probes run under
// GOMAXPROCS 1, as single simulations do.
func runProbes() (map[string]float64, error) {
	runtime.GOMAXPROCS(1)
	out := map[string]float64{}
	for _, p := range probes {
		ns := make([]float64, 0, probeReps)
		for i := 0; i < probeReps; i++ {
			d, err := p.run(p.ops)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			ns = append(ns, float64(d)/float64(p.ops))
		}
		out[p.name] = quantile(ns, 0.5)
	}
	return out, nil
}

// inThread runs body on the only thread of a fresh engine and returns
// the time body's loop took, as body measures it.
func inThread(e *sim.Engine, body func(th *sim.Thread) time.Duration) (time.Duration, error) {
	var d time.Duration
	e.Spawn("probe", func(th *sim.Thread) { d = body(th) })
	return d, e.Run()
}

// probeAdvanceFast: a lone thread's Advance never leaves the fast path.
func probeAdvanceFast(n int) (time.Duration, error) {
	return inThread(sim.NewEngine(), func(th *sim.Thread) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			th.Advance(100)
		}
		return time.Since(start)
	})
}

// probeHandoff16: sixteen threads in lockstep, so every Advance hands
// off to another thread's goroutine.
func probeHandoff16(n int) (time.Duration, error) {
	const threads = 16
	e := sim.NewEngine()
	for t := 0; t < threads; t++ {
		e.Spawn("probe", func(th *sim.Thread) {
			for i := 0; i < n/threads; i++ {
				th.Advance(100)
			}
		})
	}
	start := time.Now()
	err := e.Run()
	return time.Since(start), err
}

// probeChargeTelemetry: Charge with charge histograms and the cause
// series on.
func probeChargeTelemetry(n int) (time.Duration, error) {
	e := sim.NewEngine()
	e.EnableChargeHistograms(1)
	e.EnableCauseSeries(sim.Microsecond, 64)
	return inThread(e, func(th *sim.Thread) time.Duration {
		th.BindNode(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			th.Charge(sim.CauseCompute, 100)
		}
		return time.Since(start)
	})
}

// probeAccess: one-word reads from processor 0 to module mod, on the
// uniform machine cfg or, when topo is set, on that topology.
func probeAccess(n int, cfg mach.Config, topo *mach.Topology, mod int) (time.Duration, error) {
	e := sim.NewEngine()
	var m *mach.Machine
	var err error
	if topo != nil {
		m, err = mach.FromTopology(e, topo)
	} else {
		m, err = mach.New(e, cfg)
	}
	if err != nil {
		return 0, err
	}
	return inThread(e, func(th *sim.Thread) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			m.Access(th, 0, mod, 1, false)
		}
		return time.Since(start)
	})
}

// newSystem boots a bare coherent-memory system with one mapped page,
// its cmap active on every processor.
func newSystem(cfg core.Config) (*sim.Engine, *core.System, *core.Cmap, error) {
	e := sim.NewEngine()
	m, err := mach.New(e, mach.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := core.NewSystem(m, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	cm := s.NewCmap()
	for p := 0; p < m.Nodes(); p++ {
		cm.Activate(nil, p)
	}
	if _, err := cm.Enter(0, s.NewCpage(), core.Read|core.Write); err != nil {
		return nil, nil, nil, err
	}
	return e, s, cm, nil
}

// probeTouchHit: repeated reads of one page from one processor, every
// one an ATC hit after the first.
func probeTouchHit(n int) (time.Duration, error) {
	e, s, cm, err := newSystem(core.DefaultConfig())
	if err != nil {
		return 0, err
	}
	var touchErr error
	d, err := inThread(e, func(th *sim.Thread) time.Duration {
		start := time.Now()
		for i := 0; i < n && touchErr == nil; i++ {
			_, touchErr = s.Touch(th, 0, cm, 0, false)
		}
		return time.Since(start)
	})
	if touchErr != nil {
		return 0, touchErr
	}
	return d, err
}

// probeWriteFault: writes alternating between two processors, so every
// one is a write fault with a shootdown and a block transfer.
func probeWriteFault(n int) (time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Policy = core.AlwaysCache{}
	e, s, cm, err := newSystem(cfg)
	if err != nil {
		return 0, err
	}
	var touchErr error
	d, err := inThread(e, func(th *sim.Thread) time.Duration {
		start := time.Now()
		for i := 0; i < n && touchErr == nil; i++ {
			_, touchErr = s.Touch(th, i%2, cm, 0, true)
		}
		return time.Since(start)
	})
	if touchErr != nil {
		return 0, touchErr
	}
	return d, err
}

// probeUpdateSlicePage: a kernel thread updating one local page in
// place, one page run per call.
func probeUpdateSlicePage(n int) (time.Duration, error) {
	k, err := kernel.Boot(kernel.DefaultConfig())
	if err != nil {
		return 0, err
	}
	sp := k.NewSpace()
	va, err := sp.AllocPages("probe", 1, core.Read|core.Write)
	if err != nil {
		return 0, err
	}
	pw := k.PageWords()
	var d time.Duration
	k.Spawn("probe", 0, sp, func(t *kernel.Thread) {
		start := time.Now()
		for i := 0; i < n; i++ {
			t.UpdateSlice(va, pw, func(_ int, w []uint32) { w[0]++ })
		}
		d = time.Since(start)
	})
	return d, k.Run()
}

// probeSpanBeginEnd: a span begun, tagged and ended into the flight
// ring.
func probeSpanBeginEnd(n int) (time.Duration, error) {
	rec := span.NewRecorder(0)
	now := sim.Time(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		now += 2
		rec.Begin(span.KindFault, now).Proc(1).Track(2).Notef("probe %d", 3).End(now + 1)
	}
	return time.Since(start), nil
}
