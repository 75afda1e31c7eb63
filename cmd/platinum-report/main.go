// Command platinum-report runs one of the paper's applications on the
// simulated machine and prints the kernel's post-mortem memory
// management report (§4.2): per-Cpage fault counts, fault-handler
// contention, replication/migration/freeze activity, and ATC hit rates.
// This is the instrumentation that let the paper's authors diagnose the
// frozen-pivot-page anomaly.
//
// With -json the same data is emitted as one structured document
// (metrics.Report, schema_version 1): the machine-wide and per-node
// cost breakdowns — exact per-cause time, not samples — plus the
// per-page records ranked most-expensive-first. See EXPERIMENTS.md for
// the field-by-field schema.
//
// With -spans the run also records causal spans (internal/span) and
// writes them as Chrome trace-event JSON, loadable in Perfetto or
// chrome://tracing; see cmd/platinum-trace for a dedicated exporter.
//
// Usage:
//
//	platinum-report [-app gauss|mergesort|backprop|anecdote] [-procs n]
//	                [-n size] [-top k] [-json]
//	                [-trace n] [-timeline file.jsonl] [-bucket d]
//	                [-spans file.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/metrics"
	"platinum/internal/sim"
	"platinum/internal/span"
	trc "platinum/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against explicit streams so tests can drive
// every CLI path; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("platinum-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "gauss", "application: gauss, mergesort, backprop, anecdote")
	procs := fs.Int("procs", 8, "processors to use")
	size := fs.Int("n", 240, "problem size (matrix dim / words / epochs)")
	top := fs.Int("top", 20, "show the k busiest pages")
	jsonOut := fs.Bool("json", false, "emit the structured metrics report as JSON")
	trace := fs.Int("trace", 0, "record up to this many protocol events and print a summary")
	timeline := fs.String("timeline", "", "write a per-node timeline as JSON Lines to this file (requires -trace)")
	bucket := fs.Duration("bucket", time.Millisecond, "timeline bucket width (virtual time)")
	spans := fs.String("spans", "", "record causal spans and write Chrome trace-event JSON to this file")
	histOn := fs.Bool("hist", false, "record latency histograms (per-cause charges and whole operations) and print percentile tables")
	series := fs.Duration("series", 0, "record windowed rate curves over simulated time with this window width (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bad string
	switch {
	case *top < 0:
		bad = fmt.Sprintf("-top %d: must not be negative", *top)
	case *trace < 0:
		bad = fmt.Sprintf("-trace %d: must not be negative", *trace)
	case *series < 0:
		bad = fmt.Sprintf("-series %v: must not be negative", *series)
	case *bucket <= 0:
		bad = fmt.Sprintf("-bucket %v: must be positive", *bucket)
	case *timeline != "" && *trace == 0:
		bad = "-timeline needs -trace to record the events it buckets"
	}
	if bad != "" {
		fmt.Fprintln(stderr, "platinum-report:", bad)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "platinum-report:", err)
		return 1
	}

	// Acquire the platform through the pool: repeated in-process runs
	// (the determinism A/B tests, future batch drivers) reuse one reset
	// kernel instead of booting a fresh one. The key carries every
	// setting that changes the kernel's instrumentation state.
	poolKey := fmt.Sprintf("platinum-report:trace=%d spans=%t hist=%t series=%v",
		*trace, *spans != "", *histOn, *series)
	pl, err := apps.AcquirePlatform(poolKey, kernel.DefaultConfig())
	if err != nil {
		return fail(err)
	}
	if *trace > 0 {
		pl.K.EnableTrace(*trace)
	}
	if *spans != "" {
		if *app == "anecdote" {
			return fail(fmt.Errorf("-spans is not supported with -app anecdote (it boots its own kernel)"))
		}
		pl.K.EnableSpans(0)
	}
	if *histOn || *series > 0 {
		if *app == "anecdote" {
			return fail(fmt.Errorf("-hist/-series are not supported with -app anecdote (it boots its own kernel)"))
		}
		if *histOn {
			pl.K.EnableHistograms()
		}
		if *series > 0 {
			pl.K.EnableSeries(sim.Time(*series), 0)
		}
	}

	var elapsed sim.Time
	var header string
	switch *app {
	case "gauss":
		cfg := apps.DefaultGaussConfig(*size, *procs)
		r, err := apps.RunGaussPlatinum(pl, cfg)
		if err != nil {
			return fail(err)
		}
		want := apps.GaussReferenceChecksum(cfg)
		elapsed = r.Elapsed
		header = fmt.Sprintf("gauss %dx%d on %d procs: %v (checksum %#x, reference %#x)",
			*size, *size, *procs, r.Elapsed, r.Checksum, want)
	case "mergesort":
		cfg := apps.DefaultMergeSortConfig(*procs)
		if *size > 0 {
			cfg.Words = *size
		}
		r, err := apps.RunMergeSort(pl, cfg)
		if err != nil {
			return fail(err)
		}
		elapsed = r.Elapsed
		header = fmt.Sprintf("mergesort %d words on %d procs: %v (sorted=%v)",
			cfg.Words, *procs, r.Elapsed, r.Sorted)
	case "backprop":
		cfg := apps.DefaultBackpropConfig(*procs)
		if *size > 0 && *size < 1000 {
			cfg.Epochs = *size
		}
		r, err := apps.RunBackprop(pl, cfg)
		if err != nil {
			return fail(err)
		}
		elapsed = r.Elapsed
		header = fmt.Sprintf("backprop %d epochs on %d procs: %v (SSE %.3f -> %.3f)",
			cfg.Epochs, *procs, r.Elapsed, r.InitialSSE, r.FinalSSE)
	case "anecdote":
		cfg := apps.DefaultAnecdoteConfig(*procs)
		r, err := apps.RunAnecdote(cfg)
		if err != nil {
			return fail(err)
		}
		if err := metrics.CheckConservation(r.Accounts); err != nil {
			return fail(err)
		}
		if *jsonOut {
			// The anecdote boots its own kernel; report on that one.
			mr := metrics.BuildReport("anecdote", *procs, r.Elapsed, r.Accounts, r.Report)
			if err := metrics.WriteJSON(stdout, mr); err != nil {
				return fail(err)
			}
			apps.ReleasePlatform(poolKey, pl)
			return 0
		}
		fmt.Fprintf(stdout, "anecdote on %d procs: %v (size page frozen: %v)\n",
			*procs, r.Elapsed, r.SizeFrozen)
		fmt.Fprintln(stdout, "(anecdote boots its own kernel; report below is for the unused default kernel)")
		elapsed = r.Elapsed
	default:
		return fail(fmt.Errorf("unknown app %q", *app))
	}

	accounts := pl.K.NodeAccounts()
	if err := metrics.CheckConservation(accounts); err != nil {
		return fail(err)
	}
	if *histOn {
		// Histograms dogfood their own invariant: every nanosecond the
		// accounts classified must appear in a bucket, exactly.
		if err := metrics.CheckHistConservation(pl.K.Engine(), accounts); err != nil {
			return fail(err)
		}
	}
	report := pl.K.Report()
	var hsec *metrics.Histograms
	var ssec *metrics.SeriesMetrics
	if *histOn || *series > 0 {
		hsec = metrics.BuildHistograms(pl.K.Engine(), pl.K.Spans())
		ssec = metrics.BuildSeries(pl.K.CauseSeries(), pl.K.Spans().CountSeries())
	}

	if *jsonOut {
		mr := metrics.BuildReport(*app, *procs, elapsed, accounts, report)
		if *top > 0 && len(mr.Pages) > *top {
			mr.Pages = mr.Pages[:*top]
		}
		mr.AttachTelemetry(hsec, ssec)
		if err := metrics.WriteJSON(stdout, mr); err != nil {
			return fail(err)
		}
	} else {
		if header != "" {
			fmt.Fprintln(stdout, header)
			fmt.Fprintln(stdout)
		}
		if *top > 0 && len(report.Pages) > *top {
			report.Pages = report.Pages[:*top]
		}
		if _, err := report.WriteTo(stdout); err != nil {
			return fail(err)
		}
		writeBreakdown(stdout, pl.K.TotalAccount())
		// ATC summary.
		var hits, misses int64
		for _, a := range report.ATC {
			hits += a.Hits
			misses += a.Misses
		}
		if hits+misses > 0 {
			fmt.Fprintf(stdout, "\nATC: %d hits, %d misses (%.1f%% hit rate)\n",
				hits, misses, 100*float64(hits)/float64(hits+misses))
		}
		if hsec != nil {
			writeHistTables(stdout, hsec)
		}
		if ssec != nil {
			writeSeriesTable(stdout, ssec)
		}
	}

	if *spans != "" {
		rec := pl.K.Spans()
		all := rec.Spans()
		f, err := os.Create(*spans)
		if err != nil {
			return fail(err)
		}
		if err := span.WriteChrome(f, all); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "\nspans: %d recorded (%d dropped) -> %s\n",
				len(all), rec.Dropped(), *spans)
		}
	}

	if *trace > 0 {
		events, dropped := pl.K.Trace()
		if *timeline != "" {
			f, err := os.Create(*timeline)
			if err != nil {
				return fail(err)
			}
			if err := metrics.WriteTimelineJSONL(f, events, sim.Time(*bucket)); err != nil {
				f.Close()
				return fail(err)
			}
			if err := f.Close(); err != nil {
				return fail(err)
			}
		}
		if !*jsonOut {
			fmt.Fprintln(stdout)
			if _, err := trc.Summarize(events, dropped).WriteTo(stdout); err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, "busiest pages (faults, moves, freeze cycles, ping-pong runs):")
			pages := trc.ByPage(events)
			if len(pages) > 8 {
				pages = pages[:8]
			}
			for _, h := range pages {
				fmt.Fprintf(stdout, "  cpage %-5d faults=%-5d moves=%-5d cycles=%-3d pingpong=%d\n",
					h.Cpage, h.Faults, h.Moves, h.FreezeCycles, h.PingPongRuns)
			}
		}
	}
	apps.ReleasePlatform(poolKey, pl)
	return 0
}

// writeHistTables prints the latency-distribution tables: machine-wide
// per-cause charge distributions, then whole-operation distributions.
// Percentiles are bucket upper bounds (<=12.5% relative error), capped
// at the exact max; count, sum-derived mean and max are exact.
func writeHistTables(w io.Writer, h *metrics.Histograms) {
	writeHistSection := func(title string, hs []metrics.HistogramMetrics) {
		if len(hs) == 0 {
			return
		}
		fmt.Fprintf(w, "\n%s:\n", title)
		fmt.Fprintf(w, "  %-15s %10s %12s %12s %12s %12s %12s %12s\n",
			"", "count", "p50", "p90", "p99", "p99.9", "max", "mean")
		for _, m := range hs {
			mean := sim.Time(0)
			if m.Count > 0 {
				mean = sim.Time(m.SumNs / m.Count)
			}
			fmt.Fprintf(w, "  %-15s %10d %12v %12v %12v %12v %12v %12v\n",
				m.Name, m.Count, sim.Time(m.P50Ns), sim.Time(m.P90Ns),
				sim.Time(m.P99Ns), sim.Time(m.P999Ns), sim.Time(m.MaxNs), mean)
		}
	}
	writeHistSection("charge latency distributions", h.Charges)
	writeHistSection("operation latency distributions", h.Ops)
}

// writeSeriesTable prints the rate curves: per window of simulated
// time, operation counts plus the window's remote-access and
// fault+shootdown time fractions.
func writeSeriesTable(w io.Writer, s *metrics.SeriesMetrics) {
	if len(s.Windows) == 0 {
		return
	}
	fmt.Fprintf(w, "\nrate curves (window %v of simulated time):\n", sim.Time(s.WidthNs))
	if s.SpilledWindows > 0 {
		fmt.Fprintf(w, "  (%d older windows evicted; totals preserved in spill)\n", s.SpilledWindows)
	}
	fmt.Fprintf(w, "  %-14s %7s %7s %7s %7s %7s %8s %8s\n",
		"window", "faults", "shoot", "xfer", "freeze", "thaw", "remote%", "fault%")
	for _, win := range s.Windows {
		var total, remote, fault int64
		for name, v := range win.TimeNs {
			total += v
			switch name {
			case "remote_access":
				remote += v
			case "fault", "shootdown":
				fault += v
			}
		}
		remoteFrac, faultFrac := 0.0, 0.0
		if total > 0 {
			remoteFrac = 100 * float64(remote) / float64(total)
			faultFrac = 100 * float64(fault) / float64(total)
		}
		fmt.Fprintf(w, "  %-14v %7d %7d %7d %7d %7d %7.1f%% %7.1f%%\n",
			sim.Time(win.StartNs),
			win.Counts["faults"], win.Counts["shootdowns"], win.Counts["block_transfers"],
			win.Counts["freezes"], win.Counts["thaws"], remoteFrac, faultFrac)
	}
}

// writeBreakdown prints the machine-wide per-cause time table.
func writeBreakdown(w io.Writer, a sim.Account) {
	total := a.Total()
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "\ncost breakdown (total %v across all processors):\n", total)
	for c := sim.Cause(0); c < sim.NumCauses; c++ {
		if a[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-15v %14v %6.1f%%\n", c, a[c], 100*float64(a[c])/float64(total))
	}
}
