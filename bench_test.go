package platinum

// One benchmark per paper artifact (table/figure), each regenerating the
// experiment in quick mode, plus micro-benchmarks of the simulator's own
// hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// The full-size experiments are produced by cmd/platinum-bench (no
// -quick); EXPERIMENTS.md records paper-vs-measured for those.

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"platinum/internal/analysis"
	"platinum/internal/apps"
	"platinum/internal/core"
	"platinum/internal/exp"
	"platinum/internal/kernel"
	"platinum/internal/mach"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
)

// benchExperiment runs one experiment per iteration and reports a named
// cell of the result table as a benchmark metric.
func benchExperiment(b *testing.B, id string, metric string, pick func(*exp.Table) float64) {
	b.Helper()
	e, ok := exp.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(exp.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if pick != nil {
			last = pick(tab)
		}
	}
	if pick != nil {
		b.ReportMetric(last, metric)
	}
}

// cell parses table cell [row][col] as a float (suffix-tolerant).
func cell(tab *exp.Table, row, col int) float64 {
	s := tab.Rows[row][col]
	s = strings.TrimRightFunc(s, func(r rune) bool {
		return (r < '0' || r > '9') && r != '.'
	})
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// BenchmarkBasicOps regenerates the §4 basic-operation timing table.
func BenchmarkBasicOps(b *testing.B) {
	benchExperiment(b, "basic-ops", "µs/extra-target", func(t *exp.Table) float64 {
		return cell(t, len(t.Rows)-1, 1)
	})
}

// BenchmarkTable1 regenerates Table 1 from the analytic model.
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", "smin(rho=1,g=1)", func(t *exp.Table) float64 {
		for _, row := range t.Rows {
			if row[0] == "1.00" {
				return cell(t, 6, 2)
			}
		}
		return 0
	})
}

// BenchmarkTable1Empirical cross-checks Table 1 cells by simulation.
func BenchmarkTable1Empirical(b *testing.B) {
	benchExperiment(b, "table1-empirical", "rows", func(t *exp.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkFig1Gauss regenerates the Fig. 1 speedup curve and reports
// the max-processor speedup (paper: 13.5 at 16 on the full size).
func BenchmarkFig1Gauss(b *testing.B) {
	benchExperiment(b, "fig1", "speedup@16", func(t *exp.Table) float64 {
		return cell(t, len(t.Rows)-1, 2)
	})
}

// BenchmarkGaussCompare regenerates the three-system §5.1 comparison.
func BenchmarkGaussCompare(b *testing.B) {
	benchExperiment(b, "gauss-compare", "platinum-speedup@16", func(t *exp.Table) float64 {
		return cell(t, 0, 3)
	})
}

// BenchmarkFig5MergeSort regenerates the Fig. 5 comparison and reports
// PLATINUM's advantage over the Symmetry at 16 processors.
func BenchmarkFig5MergeSort(b *testing.B) {
	benchExperiment(b, "fig5", "platinum/symmetry-speedup@16", func(t *exp.Table) float64 {
		last := len(t.Rows) - 1
		return cell(t, last, 2) / cell(t, last, 4)
	})
}

// BenchmarkFig6Backprop regenerates the Fig. 6 curve and reports the
// per-processor contribution at the largest count (paper: ~0.5).
func BenchmarkFig6Backprop(b *testing.B) {
	benchExperiment(b, "fig6", "per-proc@max", func(t *exp.Table) float64 {
		return cell(t, len(t.Rows)-1, 3)
	})
}

// BenchmarkFreezeAnecdote regenerates the §4.2 frozen-page comparison
// and reports the cost ratio of co-location without defrost.
func BenchmarkFreezeAnecdote(b *testing.B) {
	benchExperiment(b, "freeze-anecdote", "colocated/separate", func(t *exp.Table) float64 {
		frozen := parseDur(t.Rows[0][2])
		separate := parseDur(t.Rows[2][2])
		if separate == 0 {
			return 0
		}
		return frozen / separate
	})
}

// BenchmarkT1Sweep regenerates the t1 sensitivity sweep.
func BenchmarkT1Sweep(b *testing.B) {
	benchExperiment(b, "t1-sweep", "rows", func(t *exp.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkPolicyAblation regenerates the §8 policy comparison.
func BenchmarkPolicyAblation(b *testing.B) {
	benchExperiment(b, "policy-ablation", "rows", func(t *exp.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkReplSource regenerates the replication-source ablation.
func BenchmarkReplSource(b *testing.B) {
	benchExperiment(b, "repl-source", "least-loaded-speedup", func(t *exp.Table) float64 {
		return cell(t, 1, 2)
	})
}

// BenchmarkGaussTelemetry prices the distributional telemetry: the same
// gauss run with everything off versus charge histograms, the span
// retention op histograms derive from, and both simulated-time series
// all on. The two sub-benchmarks share nothing (distinct pool keys —
// instrumentation state is part of the platform configuration), so
// "off" is the clean baseline; the "on" variant additionally reports
// the fault-latency percentiles of the fault histogram derived from the
// retained spans (scripts/bench-snapshot.sh records them).
func BenchmarkGaussTelemetry(b *testing.B) {
	run := func(b *testing.B, instrument bool) {
		key := "bench-gauss:telemetry=off"
		if instrument {
			key = "bench-gauss:telemetry=on"
		}
		var p50, p99 float64
		for i := 0; i < b.N; i++ {
			pl, err := apps.AcquirePlatform(key, kernel.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if instrument {
				pl.K.EnableHistograms()
				pl.K.EnableSeries(sim.Time(1e6), 0) // 1ms windows
			}
			if _, err := apps.RunGaussPlatinum(pl, apps.DefaultGaussConfig(64, 8)); err != nil {
				b.Fatal(err)
			}
			if instrument {
				h := pl.K.Spans().OpHist(span.KindFault)
				p50, p99 = float64(h.Quantile(0.50)), float64(h.Quantile(0.99))
			}
			apps.ReleasePlatform(key, pl)
		}
		if instrument {
			b.ReportMetric(p50, "p50-fault-ns")
			b.ReportMetric(p99, "p99-fault-ns")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkObservedExport times each step of an observed run's export
// on one fixed recording: Fig. 1's 240x240 Gauss on 16 processors with
// 256-word pages, seed 1 and every recording sink on (the run
// bench/'s gauss-16p-observed workload exports). The sub-benchmarks
// are the steps platinum-report -json -hist -series 1ms -spans
// -timeline takes after the run:
//
//   - spans: the retained spans put into start order (Recorder.Spans),
//     each time on a recorder refilled, untimed, in record order, since
//     Spans orders the buffer in place and a second call finds it sorted;
//   - chrome: the Chrome trace-event export of those spans;
//   - report: build the report with its histograms and series, then
//     write it as JSON;
//   - timeline: the per-node timeline as JSON Lines.
//
// Run it with -benchmem: the allocation columns are what the streaming
// exports keep low.
func BenchmarkObservedExport(b *testing.B) {
	kcfg := kernel.DefaultConfig()
	kcfg.Machine.PageWords = 256
	pl, err := apps.NewPlatinumPlatform(kcfg)
	if err != nil {
		b.Fatal(err)
	}
	k := pl.K
	k.EnableTrace(1 << 16)
	k.EnableSpans(0)
	k.EnableHistograms()
	k.EnableSeries(sim.Millisecond, 0)
	cfg := apps.DefaultGaussConfig(240, 16)
	cfg.Seed = 1
	r, err := apps.RunGaussPlatinum(pl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	accts := k.NodeAccounts()
	spans := k.Spans().Spans()
	events, _ := k.Trace()
	// This run records its spans in ID order, so sorting by ID restores
	// the order of its Record calls.
	recorded := slices.SortedFunc(slices.Values(spans), func(a, b span.Span) int { return cmp.Compare(a.ID, b.ID) })
	rec := span.NewRecorder(0)
	b.Run("spans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rec.EnableRetain(0)
			for _, sp := range recorded {
				rec.Record(sp)
			}
			b.StartTimer()
			spansSink = rec.Spans()
		}
	})
	b.Run("chrome", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := span.WriteChrome(io.Discard, spans); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mr := metrics.BuildReport("gauss", cfg.Threads, r.Elapsed, accts, k.Report())
			mr.Pages = mr.Pages[:min(len(mr.Pages), 20)]
			mr.AttachTelemetry(
				metrics.BuildHistograms(k.Engine(), k.Spans()),
				metrics.BuildSeries(k.CauseSeries(), k.Spans().CountSeries()))
			if err := metrics.WriteJSON(io.Discard, mr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := metrics.WriteTimelineJSONL(io.Discard, events, sim.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// spansSink keeps BenchmarkObservedExport's sorted spans live, so the
// compiler cannot drop the call that builds them.
var spansSink []span.Span

// parseDur converts a sim.Time string like "1.340ms" to milliseconds.
func parseDur(s string) float64 {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "µs"):
		s, mult = strings.TrimSuffix(s, "µs"), 1e-3
	case strings.HasSuffix(s, "ms"):
		s = strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "ns"):
		s, mult = strings.TrimSuffix(s, "ns"), 1e-6
	case strings.HasSuffix(s, "s"):
		s, mult = strings.TrimSuffix(s, "s"), 1e3
	}
	v, _ := strconv.ParseFloat(s, 64)
	return v * mult
}

// --- simulator micro-benchmarks ---

// BenchmarkEngineStep measures the discrete-event engine's dispatch
// throughput (one Advance per op) across its scheduling paths:
//
//   - fastpath-eligible: one thread always strictly minimum, so every
//     Advance returns without any coroutine switch;
//   - handoff: eight threads in lockstep, every Advance a fused
//     replace-top handoff, one coroutine switch to the next thread;
//   - nofastpath: the same lockstep workload with the fast path
//     disabled (the A/B determinism configuration).
func BenchmarkEngineStep(b *testing.B) {
	run := func(b *testing.B, threads int, fastPath bool) {
		e := sim.NewEngine()
		e.SetFastPath(fastPath)
		for t := 0; t < threads; t++ {
			n := b.N / threads
			e.Spawn("w", func(th *sim.Thread) {
				for i := 0; i < n; i++ {
					th.Advance(100)
				}
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fastpath-eligible", func(b *testing.B) { run(b, 1, true) })
	b.Run("handoff", func(b *testing.B) { run(b, 8, true) })
	b.Run("nofastpath", func(b *testing.B) { run(b, 8, false) })
}

// BenchmarkTouchATCHit measures the coherent memory fast path.
func BenchmarkTouchATCHit(b *testing.B) {
	e := sim.NewEngine()
	m, err := mach.New(e, mach.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSystem(m, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cm := s.NewCmap()
	cm.Activate(nil, 0)
	cp := s.NewCpage()
	if _, err := cm.Enter(0, cp, core.Read|core.Write); err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ResetTimer()
	var touchErr error // b.Fatal must not run on a thread body's goroutine
	e.Spawn("t", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			if _, touchErr = s.Touch(th, 0, cm, 0, false); touchErr != nil {
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if touchErr != nil {
		b.Fatal(touchErr)
	}
}

// BenchmarkFaultReplication measures the full fault-handler path: each
// iteration replicates a page to a processor that then loses it again.
func BenchmarkFaultReplication(b *testing.B) {
	e := sim.NewEngine()
	m, err := mach.New(e, mach.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Policy = core.AlwaysCache{}
	s, err := core.NewSystem(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cm := s.NewCmap()
	for p := 0; p < m.Nodes(); p++ {
		cm.Activate(nil, p)
	}
	cp := s.NewCpage()
	if _, err := cm.Enter(0, cp, core.Read|core.Write); err != nil {
		b.Fatal(err)
	}
	n := b.N
	b.ResetTimer()
	var touchErr error // b.Fatal must not run on a thread body's goroutine
	e.Spawn("t", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			// Write on alternating processors migrates the page back
			// and forth: one full fault + shootdown + transfer per op.
			if _, touchErr = s.Touch(th, i%2, cm, 0, true); touchErr != nil {
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if touchErr != nil {
		b.Fatal(touchErr)
	}
}

// BenchmarkKernelRangeRead measures end-to-end kernel range reads of a
// locally replicated page.
func BenchmarkKernelRangeRead(b *testing.B) {
	k, err := kernel.Boot(kernel.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sp := k.NewSpace()
	va, err := sp.AllocPages("bench", 1, core.Read|core.Write)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]uint32, k.PageWords())
	n := b.N
	b.SetBytes(int64(len(buf) * 4))
	b.ResetTimer()
	k.Spawn("t", 0, sp, func(t *kernel.Thread) {
		for i := 0; i < n; i++ {
			t.ReadRange(va, buf)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPageSizeSweep regenerates the §9 page-size experiment.
func BenchmarkPageSizeSweep(b *testing.B) {
	benchExperiment(b, "page-size-sweep", "rows", func(t *exp.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkBlockXferConcurrency regenerates the §7 what-if and reports
// the speedup from halving block-transfer module occupancy.
func BenchmarkBlockXferConcurrency(b *testing.B) {
	benchExperiment(b, "blockxfer-concurrency", "speedup@50%occ", func(t *exp.Table) float64 {
		return cell(t, 2, 2)
	})
}

// BenchmarkAppSuite regenerates the extended application library table.
func BenchmarkAppSuite(b *testing.B) {
	benchExperiment(b, "app-suite", "rows", func(t *exp.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkScaling regenerates the §9 scalability probe and reports the
// largest machine's efficiency relative to 16 nodes.
func BenchmarkScaling(b *testing.B) {
	benchExperiment(b, "scaling", "efficiency@max", func(t *exp.Table) float64 {
		return cell(t, len(t.Rows)-1, 5)
	})
}

// BenchmarkMachineGenerations regenerates the Butterfly 1 vs Plus
// comparison and reports the Plus's gauss speedup.
func BenchmarkMachineGenerations(b *testing.B) {
	benchExperiment(b, "machine-generations", "plus-speedup@16", func(t *exp.Table) float64 {
		return cell(t, 1, 4)
	})
}

// BenchmarkColocateOptions regenerates the §4.1 co-location comparison.
func BenchmarkColocateOptions(b *testing.B) {
	benchExperiment(b, "colocate-options", "rows", func(t *exp.Table) float64 {
		return float64(len(t.Rows))
	})
}

// BenchmarkVetFullTree runs the complete analyzer suite — loading,
// type-checking and the single-pass analyzers — over the whole module,
// exactly as internal/analysis's TestModuleClean does in tier-1. One
// iteration is one full run from a cold loader, so the ns/op is that
// test's cost and a loader or analyzer regression shows up in the
// bench snapshot diff next to the simulator numbers.
// The analyzer count is reported as a metric so the snapshot records
// how much checking that wall time bought.
func BenchmarkVetFullTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := analysis.NewModuleLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		paths, err := loader.DiscoverAll()
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.Load(paths...)
		if err != nil {
			b.Fatal(err)
		}
		findings := analysis.Run(analysis.All(), pkgs)
		if len(findings) > 0 {
			b.Fatalf("tree is not vet-clean: %d findings, the first at %s: %s",
				len(findings), findings[0].Pos(), findings[0].Message)
		}
	}
	b.ReportMetric(float64(len(analysis.All())), "analyzers")
}
