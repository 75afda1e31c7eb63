// Command platinum-report runs one of the paper's applications on the
// simulated machine and prints the kernel's post-mortem memory
// management report (§4.2): per-Cpage fault counts, fault-handler
// contention, replication/migration/freeze activity, and ATC hit rates.
// This is the instrumentation that let the paper's authors diagnose the
// frozen-pivot-page anomaly, and -app anecdote replays the §4.2 program
// it diagnosed (a spin lock on the page of a read-mostly variable), on
// a kernel without the defrost daemon. Every app runs on a pooled
// platform, so every recording flag below applies to each. A run whose
// result is wrong (a gauss checksum off the reference, an unsorted
// mergesort) exits 1.
//
// With -json the same data is emitted as one structured document
// (metrics.Report, schema_version 1): the machine-wide and per-node
// cost breakdowns — exact per-cause time, not samples — plus the
// per-page records ranked most-expensive-first. See EXPERIMENTS.md for
// the field-by-field schema.
//
// With -spans the run also records causal spans (internal/span) and
// writes them as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: one track per simulated
// processor plus an async track per coherent page, each span carrying
// its page, protocol state, directory mask and cost cause. Before the
// export the recording is validated, and a violation exits 1: spans
// must nest (children within parents, no partial overlap on a track)
// and per-cause span durations must reconcile exactly with the
// engine's Account totals. With -series the export also carries
// Perfetto counter tracks; with -text the file gets an indented text
// tree instead.
//
// Usage:
//
//	platinum-report [-app gauss|mergesort|backprop|anecdote] [-procs n]
//	                [-n size] [-top k] [-json]
//	                [-trace n] [-timeline file.jsonl] [-bucket d]
//	                [-spans file [-text]] [-hist] [-series d]
package main

import (
	"bufio"
	"errors"
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
	"platinum/internal/timeseries"
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
	size := fs.Int("n", 240, "problem size (gauss matrix dim / mergesort words / backprop epochs)")
	top := fs.Int("top", 20, "show the k busiest pages")
	jsonOut := fs.Bool("json", false, "emit the structured metrics report as JSON")
	trace := fs.Int("trace", 0, "record up to this many protocol events and print a summary")
	timeline := fs.String("timeline", "", "write a per-node timeline as JSON Lines to this file (requires -trace)")
	bucket := fs.Duration("bucket", time.Millisecond, "timeline bucket width (virtual time)")
	spans := fs.String("spans", "", "record causal spans, validate them and write Chrome trace-event JSON to this file")
	text := fs.Bool("text", false, "write the -spans file as an indented text tree instead of Chrome JSON")
	histOn := fs.Bool("hist", false, "record latency histograms (per-cause charges and whole operations) and print percentile tables")
	series := fs.Duration("series", 0, "record windowed rate curves over simulated time with this window width (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bad string
	switch {
	case fs.NArg() > 0:
		bad = fmt.Sprintf("unexpected argument %q", fs.Arg(0))
	case *size <= 0:
		bad = fmt.Sprintf("-n %d: must be positive", *size)
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
	case *text && *spans == "":
		bad = "-text needs -spans to name the file it writes"
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
	// setting that changes the kernel's instrumentation state. The
	// anecdote runs as §4.2 first found it, with no defrost daemon to
	// thaw its frozen page.
	poolKey := fmt.Sprintf("platinum-report:trace=%d spans=%t hist=%t series=%v",
		*trace, *spans != "", *histOn, *series)
	kcfg := kernel.DefaultConfig()
	if *app == "anecdote" {
		kcfg.Core.DefrostPeriod = 0
	}
	pl, err := apps.AcquirePlatform(poolKey, kcfg)
	if err != nil {
		return fail(err)
	}
	if *trace > 0 {
		pl.K.EnableTrace(*trace)
	}
	if *spans != "" {
		pl.K.EnableSpans(0)
	}
	if *histOn {
		pl.K.EnableHistograms()
	}
	if *series > 0 {
		pl.K.EnableSeries(sim.Time(*series), 0)
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
		if r.Checksum != want {
			return fail(fmt.Errorf("gauss checksum %#x differs from the reference %#x", r.Checksum, want))
		}
		elapsed = r.Elapsed
		header = fmt.Sprintf("gauss %dx%d on %d procs: %v (checksum %#x, reference %#x)",
			*size, *size, *procs, r.Elapsed, r.Checksum, want)
	case "mergesort":
		cfg := apps.DefaultMergeSortConfig(*procs)
		cfg.Words = *size
		r, err := apps.RunMergeSort(pl, cfg)
		if err != nil {
			return fail(err)
		}
		if !r.Sorted {
			return fail(errors.New("mergesort output is not sorted"))
		}
		elapsed = r.Elapsed
		header = fmt.Sprintf("mergesort %d words on %d procs: %v (sorted=%v)",
			cfg.Words, *procs, r.Elapsed, r.Sorted)
	case "backprop":
		cfg := apps.DefaultBackpropConfig(*procs)
		cfg.Epochs = *size
		r, err := apps.RunBackprop(pl, cfg)
		if err != nil {
			return fail(err)
		}
		elapsed = r.Elapsed
		header = fmt.Sprintf("backprop %d epochs on %d procs: %v (SSE %.3f -> %.3f)",
			cfg.Epochs, *procs, r.Elapsed, r.InitialSSE, r.FinalSSE)
	case "anecdote":
		r, err := apps.RunAnecdote(pl, apps.DefaultAnecdoteConfig(*procs))
		if err != nil {
			return fail(err)
		}
		elapsed = r.Elapsed
		header = fmt.Sprintf("anecdote on %d procs: %v (size page frozen: %v)",
			*procs, r.Elapsed, r.SizeFrozen)
	default:
		return fail(fmt.Errorf("unknown app %q", *app))
	}
	accounts, report := pl.K.NodeAccounts(), pl.K.Report()
	var total sim.Account
	for i := range accounts {
		total.Add(&accounts[i])
	}

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
	if *spans != "" || *histOn {
		// -hist derives its op histograms from the retained spans, so a
		// capped recording leaves them partial too.
		if d := pl.K.Spans().Dropped(); d > 0 {
			fmt.Fprintf(stderr, "platinum-report: warning: %d spans dropped (retention cap); span validation, export and op histograms are partial\n", d)
		}
	}
	var recorded []span.Span
	if *spans != "" {
		recorded = pl.K.Spans().Spans()
		if err := span.ValidateNesting(recorded); err != nil {
			return fail(err)
		}
		if err := span.Reconcile(recorded, total); err != nil {
			return fail(err)
		}
	}
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
		fmt.Fprintln(stdout, header)
		fmt.Fprintln(stdout)
		if *top > 0 && len(report.Pages) > *top {
			report.Pages = report.Pages[:*top]
		}
		if _, err := report.WriteTo(stdout); err != nil {
			return fail(err)
		}
		writeBreakdown(stdout, total)
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
		err := writeFile(*spans, func(w io.Writer) error {
			if *text {
				_, err := span.Format(w, recorded)
				return err
			}
			return span.WriteChromeWith(w, recorded, counterTracks(pl.K.CauseSeries(), pl.K.Spans().CountSeries()))
		})
		if err != nil {
			return fail(err)
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "\nspans: %d recorded (%d dropped), nest and reconcile exactly -> %s\n",
				len(recorded), pl.K.Spans().Dropped(), *spans)
		}
	}

	if *trace > 0 {
		events, dropped := pl.K.Trace()
		if *timeline != "" {
			err := writeFile(*timeline, func(w io.Writer) error {
				return metrics.WriteTimelineJSONL(w, events, sim.Time(*bucket))
			})
			if err != nil {
				return fail(err)
			}
			if dropped > 0 {
				fmt.Fprintf(stderr, "platinum-report: warning: %d protocol events dropped (-trace cap); the timeline is partial\n",
					dropped)
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

// writeFile creates path and fills it with write through a 64 KiB
// buffer, so many small writes become few system calls. A write,
// flush or close error is returned.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
		var total int64
		for _, v := range win.TimeNs {
			total += v
		}
		remote := win.TimeNs[sim.CauseRemoteAccess]
		fault := win.TimeNs[sim.CauseFault] + win.TimeNs[sim.CauseShootdown]
		remoteFrac, faultFrac := 0.0, 0.0
		if total > 0 {
			remoteFrac = 100 * float64(remote) / float64(total)
			faultFrac = 100 * float64(fault) / float64(total)
		}
		fmt.Fprintf(w, "  %-14v %7d %7d %7d %7d %7d %7.1f%% %7.1f%%\n",
			sim.Time(win.StartNs),
			win.Counts[span.CountFault], win.Counts[span.CountShootdown], win.Counts[span.CountBlockTransfer],
			win.Counts[span.CountFreeze], win.Counts[span.CountThaw], remoteFrac, faultFrac)
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

// counterTracks turns the windowed telemetry series into Perfetto
// counter tracks: operation rates per window from the span recorder's
// count series, and the remote-access and fault+shootdown time
// fractions per window from the engine's cause series. One point per
// window across the full retained range (zeros included) so the curves
// return to baseline between bursts.
func counterTracks(cause, counts *timeseries.Series) []span.CounterTrack {
	var tracks []span.CounterTrack
	if counts != nil && !counts.Empty() {
		cols := []struct {
			col  int
			name string
		}{
			{span.CountFault, "faults/window"},
			{span.CountShootdown, "shootdowns/window"},
			{span.CountBlockTransfer, "block-transfers/window"},
			{span.CountFreeze, "freezes/window"},
			{span.CountThaw, "thaws/window"},
		}
		for _, c := range cols {
			tr := span.CounterTrack{Name: c.name}
			for w := counts.LoWindow(); w <= counts.HiWindow(); w++ {
				tr.Points = append(tr.Points, span.CounterPoint{
					Ts: counts.WindowStart(w), Value: float64(counts.At(w, c.col)),
				})
			}
			tracks = append(tracks, tr)
		}
	}
	if cause != nil && !cause.Empty() {
		remote := span.CounterTrack{Name: "remote-frac"}
		fault := span.CounterTrack{Name: "fault-frac"}
		for w := cause.LoWindow(); w <= cause.HiWindow(); w++ {
			var total int64
			for c := sim.Cause(0); c < sim.NumCauses; c++ {
				total += cause.At(w, int(c))
			}
			rf, ff := 0.0, 0.0
			if total > 0 {
				rf = float64(cause.At(w, int(sim.CauseRemoteAccess))) / float64(total)
				ff = float64(cause.At(w, int(sim.CauseFault))+cause.At(w, int(sim.CauseShootdown))) / float64(total)
			}
			ts := cause.WindowStart(w)
			remote.Points = append(remote.Points, span.CounterPoint{Ts: ts, Value: rf})
			fault.Points = append(fault.Points, span.CounterPoint{Ts: ts, Value: ff})
		}
		tracks = append(tracks, remote, fault)
	}
	return tracks
}
