package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"

	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/exp"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// A workload is one kind of closed-loop request: acquire a platform,
// simulate, verify, (export,) release. bench/ drives the system only
// through its public functions and times the phases from outside.
type workload interface {
	// cold boots fresh state, bypassing the platform pool, then runs and
	// verifies once: what a user pays the first time.
	cold(c *clock) (simCounts, error)
	// run is one pooled run, marking each phase on c.
	run(c *clock) (simCounts, error)
}

// workloads lists every workload, in the order rounds visit them, with
// its GOMAXPROCS, the cold starts it takes before and during the rounds
// (see state), and the power its times are scaled with (see
// yardstick.go). suite-quick's cold start empties the platform pool
// every workload shares, so it takes them all before the rounds.
//
// Each power is the one that made the medians of 15-second stretches of
// 300-second runs on this host steadiest (README.md, "Host noise").
// Slowdowns stretch gauss-1p hardest; its live heap, 1 MiB, is the only
// one smaller than the core's 2 MiB L2 cache. suite-quick runs two
// simulations at a time on both vCPUs while its yardsticks run on one.
var workloads = []struct {
	name                   string
	procs                  int
	setupColds, roundColds int
	power                  float64
	make                   func(seed int64) workload
}{
	{"gauss-16p", 1, 1, 9, 1.25, func(seed int64) workload { return newGaussWorkload(16, seed, false) }},
	{"gauss-1p", 1, 1, 9, 1.5, func(seed int64) workload { return newGaussWorkload(1, seed, false) }},
	{"topomix-256", 1, 1, 9, 1.25, func(int64) workload { return newTopoMixWorkload() }},
	{"gauss-16p-observed", 1, 1, 9, 1.25, func(seed int64) workload { return newGaussWorkload(16, seed, true) }},
	{"suite-quick", suiteParallelism, 3, 0, 1, func(int64) workload { return &suite{exps: exp.All()} }},
}

// suiteParallelism is how many simulations suite-quick runs at a time.
const suiteParallelism = 2

// simCounts is everything a run simulated, read from public getters.
// Simulation is deterministic, so every run of a workload must produce
// exactly the counts of its first cold start; any difference is a
// failed run.
type simCounts struct {
	Checksum      uint32 // gauss result digest
	ElapsedNs     int64  // simulated time
	Handoffs      int64  // engine goroutine handoffs
	FastSteps     int64  // dispatches the fast path elided
	Faults        int64
	Shootdowns    int64
	Replications  int64
	Migrations    int64
	Invalidations int64
	Freezes       int64
	ATCHits       int64
	ATCMisses     int64
	PTWalks       int64
	Accesses      int64 // memory-module word-access requests
	Words         int64
	QueueWaitNs   int64 // simulated time requesters queued at modules
	Spans         int64
	SimRuns       int64  // simulations per run (suite: from exp.Progress)
	Tables        string // suite: every table, rendered
}

// digest hashes the counts: equal digests mean equal simulations.
func (c simCounts) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return fmt.Sprintf("%016x", h.Sum64())
}

// countsOf reads a finished platform's simulated counters.
func countsOf(pl *apps.PlatinumPlatform) simCounts {
	k := pl.K
	fast, slow := k.Engine().Stats()
	sys := k.System()
	c := simCounts{
		ElapsedNs:  int64(pl.Elapsed()),
		Handoffs:   slow,
		FastSteps:  fast,
		Shootdowns: sys.Shootdowns(),
		PTWalks:    sys.PTStats().Walks,
		Spans:      k.Spans().Total(),
		SimRuns:    1,
	}
	for _, cp := range sys.Cpages() {
		st := &cp.Stats
		c.Faults += st.Faults()
		c.Replications += st.Replications
		c.Migrations += st.Migrations
		c.Invalidations += st.Invalidations
		c.Freezes += st.Freezes
	}
	for _, a := range sys.ATCStats() {
		c.ATCHits += a.Hits
		c.ATCMisses += a.Misses
	}
	for i := 0; i < k.Nodes(); i++ {
		m := k.Machine().Module(i)
		c.Accesses += m.Accesses
		c.Words += m.Words
		c.QueueWaitNs += int64(m.QueueWait)
	}
	return c
}

// platformWorkload runs one program on one pooled PLATINUM platform.
type platformWorkload struct {
	key  string
	kcfg kernel.Config
	// body simulates on pl, verifies, and exports if the workload does.
	body func(pl *apps.PlatinumPlatform, c *clock) (simCounts, error)
}

// released holds every platform bench/ has returned to the pool, so an
// acquisition can tell a reused platform from a fresh boot.
var released = map[*apps.PlatinumPlatform]bool{}

// emptyPool drops every pooled platform, so the next acquisitions boot.
func emptyPool() {
	apps.SetPooling(false)
	apps.SetPooling(true)
	clear(released)
}

func (w *platformWorkload) cold(c *clock) (simCounts, error) {
	pl, err := apps.NewPlatinumPlatform(w.kcfg)
	if err != nil {
		return simCounts{}, err
	}
	return w.body(pl, c)
}

func (w *platformWorkload) run(c *clock) (simCounts, error) {
	pl, err := apps.AcquirePlatform(w.key, w.kcfg)
	c.mark(phAcquire)
	if err != nil {
		return simCounts{}, err
	}
	c.acquired, c.reused = true, released[pl]
	counts, err := w.body(pl, c)
	if err != nil {
		return counts, err // failed runs are not pooled
	}
	apps.ReleasePlatform(w.key, pl)
	released[pl] = true
	c.mark(phRelease)
	return counts, nil
}

// gauss is RunGaussPlatinum at Fig. 1's -quick size: 240x240 on
// 256-word pages. observed turns every recording sink on and exports
// what platinum-report -json -hist -series -spans -timeline would.
type gauss struct {
	platformWorkload
	cfg      apps.GaussConfig
	want     uint32 // GaussReferenceChecksum for cfg
	observed bool
}

func newGaussWorkload(procs int, seed int64, observed bool) *gauss {
	cfg := apps.DefaultGaussConfig(240, procs)
	cfg.Seed = seed
	g := &gauss{cfg: cfg, want: apps.GaussReferenceChecksum(cfg), observed: observed}
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 256
	g.platformWorkload = platformWorkload{
		// The pool key carries the instrumentation state, as
		// platinum-report's does.
		key:  fmt.Sprintf("bench:gauss:observed=%t", observed),
		kcfg: kcfg,
		body: g.body,
	}
	return g
}

func (g *gauss) body(pl *apps.PlatinumPlatform, c *clock) (simCounts, error) {
	k := pl.K
	if g.observed {
		k.EnableTrace(1 << 16)
		k.EnableSpans(0)
		k.EnableHistograms()
		k.EnableSeries(sim.Millisecond, 0)
	}
	r, err := apps.RunGaussPlatinum(pl, g.cfg)
	c.mark(phSimulate)
	if err != nil {
		return simCounts{}, err
	}
	if r.Checksum != g.want {
		return simCounts{}, fmt.Errorf("gauss checksum %#x, reference %#x", r.Checksum, g.want)
	}
	accts := k.NodeAccounts()
	if err := metrics.CheckConservation(accts); err != nil {
		return simCounts{}, err
	}
	if g.observed {
		if err := metrics.CheckHistConservation(k.Engine(), accts); err != nil {
			return simCounts{}, err
		}
		if err := metrics.CheckSeriesConservation(k.Engine(), k.TotalAccount()); err != nil {
			return simCounts{}, err
		}
	}
	counts := countsOf(pl)
	counts.Checksum = r.Checksum
	c.mark(phVerify)
	if g.observed {
		if err := exportReport(pl, g.cfg.Threads, r.Elapsed, accts); err != nil {
			return simCounts{}, err
		}
		c.mark(phExport)
	}
	return counts, nil
}

// exportReport renders what platinum-report -json -hist -series -spans
// -timeline writes for a run, discarding the bytes.
func exportReport(pl *apps.PlatinumPlatform, procs int, elapsed sim.Time, accts []sim.Account) error {
	k := pl.K
	mr := metrics.BuildReport("gauss", procs, elapsed, accts, k.Report())
	if len(mr.Pages) > 20 { // platinum-report's default -top
		mr.Pages = mr.Pages[:20]
	}
	mr.AttachTelemetry(
		metrics.BuildHistograms(k.Engine(), k.Spans()),
		metrics.BuildSeries(k.CauseSeries(), k.Spans().CountSeries()))
	if err := metrics.WriteJSON(io.Discard, mr); err != nil {
		return err
	}
	if err := span.WriteChrome(io.Discard, k.Spans().Spans()); err != nil {
		return err
	}
	events, _ := k.Trace()
	return metrics.WriteTimelineJSONL(io.Discard, events, sim.Millisecond)
}

// clusterTopology is the 256-node machine of 16-node clusters that
// topomix-256 and probe.mach.access_topo256 run on: inter-cluster
// distance 2000 per mille and a 50 ns/word switch per cluster, the
// shape of the topo-nodes and pt-variants sweeps.
func clusterTopology() *mach.Topology {
	const nodes, cluster, far = 256, 16, 2000
	base := mach.DefaultConfig()
	base.Nodes = nodes
	base.PageWords = 256
	dist := make([]int, nodes*nodes)
	domain := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		domain[i] = i / cluster
		for j := 0; j < nodes; j++ {
			dist[i*nodes+j] = mach.DistScale
			if i/cluster != j/cluster {
				dist[i*nodes+j] = far
			}
		}
	}
	return &mach.Topology{
		Name:     "bench-cluster-256x16-far2000",
		Base:     base,
		Distance: dist,
		Levels:   []mach.SwitchLevel{{Domain: domain, PerWord: 50 * sim.Nanosecond}},
	}
}

// newTopoMixWorkload runs TopoMix on every node of the cluster machine
// with Mitosis-style replicated page tables.
func newTopoMixWorkload() *platformWorkload {
	topo := clusterTopology()
	kcfg := kernel.DefaultConfig()
	kcfg.Topology = topo
	kcfg.Core.FramesPerModule = 32
	kcfg.Core.PageTables = core.PTConfig{Mode: core.PTReplicate}
	mix := apps.DefaultTopoMixConfig(topo.Nodes(), topo.Base.PageWords)
	return &platformWorkload{
		key:  "bench:topomix-256",
		kcfg: kcfg,
		body: func(pl *apps.PlatinumPlatform, c *clock) (simCounts, error) {
			_, err := apps.RunTopoMix(pl, mix) // fails on its own audit
			c.mark(phSimulate)
			if err != nil {
				return simCounts{}, err
			}
			if err := metrics.CheckConservation(pl.K.NodeAccounts()); err != nil {
				return simCounts{}, err
			}
			counts := countsOf(pl)
			c.mark(phVerify)
			return counts, nil
		},
	}
}

// suite is one pass of the given experiments at -quick size with two
// simulations at a time, tables rendered. Its platforms are acquired
// inside internal/exp, so only simulate and verify are timed and the
// simulated counters are the rendered tables and the run count. Each
// experiment is a step: the yardsticks between them show whether the
// host slowed down during the pass.
type suite struct {
	exps []exp.Experiment
}

func (s *suite) cold(c *clock) (simCounts, error) {
	emptyPool()
	return s.run(c)
}

func (s *suite) run(c *clock) (simCounts, error) {
	var progress exp.Progress
	opts := exp.Options{Quick: true, Parallelism: suiteParallelism, Progress: &progress}
	tabs := make([]*exp.Table, 0, len(s.exps))
	for i, e := range s.exps {
		if i > 0 {
			c.step()
		}
		t, err := e.Run(opts)
		if err != nil {
			return simCounts{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		tabs = append(tabs, t)
	}
	c.mark(phSimulate)
	var buf bytes.Buffer
	for _, t := range tabs {
		t.WriteTo(&buf) // writes to a bytes.Buffer cannot fail
	}
	counts := simCounts{SimRuns: progress.Snapshot().RunsDone, Tables: buf.String()}
	c.mark(phVerify)
	return counts, nil
}
