// Command platinum-trace runs one of the paper's applications with
// causal span tracing enabled and exports the recording as Chrome
// trace-event JSON — loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing — with one track per simulated processor plus an
// async track per coherent page. Each span carries the page id,
// protocol state, directory mask, and cost cause, so a fault's full
// causal chain (directory lookup, shootdown rounds, per-processor
// acks, block transfer, map update) reads directly off the timeline.
//
// With -validate the exporter instead checks the recording's
// structural guarantees and exits nonzero on violation: spans must
// nest (children within parents, no partial overlap on a track) and
// per-cause span durations must reconcile exactly with the engine's
// Account totals (see EXPERIMENTS.md, "reading a causal trace").
//
// Usage:
//
//	platinum-trace [-app gauss|mergesort|backprop] [-procs n] [-n size]
//	               [-o trace.json] [-text] [-validate]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"platinum/internal/apps"
	"platinum/internal/kernel"
	"platinum/internal/sim"
	"platinum/internal/span"
	"platinum/internal/timeseries"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against explicit streams so tests can drive
// every CLI path; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("platinum-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "gauss", "application: gauss, mergesort, backprop")
	procs := fs.Int("procs", 8, "processors to use")
	size := fs.Int("n", 64, "problem size (matrix dim / words / epochs)")
	out := fs.String("o", "", "write the trace to this file (default stdout)")
	text := fs.Bool("text", false, "dump spans as an indented text tree instead of Chrome JSON")
	validate := fs.Bool("validate", false, "check span nesting and exact Account reconciliation instead of exporting")
	counters := fs.Duration("counters", 0, "add Perfetto counter tracks (fault rate, remote fraction, ...) sampled at this window width (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *counters < 0 {
		fmt.Fprintf(stderr, "platinum-trace: -counters %v: must not be negative\n", *counters)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "platinum-trace:", err)
		return 1
	}

	pl, err := apps.NewPlatinumPlatform(kernel.DefaultConfig())
	if err != nil {
		return fail(err)
	}
	pl.K.EnableSpans(0)
	if *counters > 0 {
		pl.K.EnableSeries(sim.Time(*counters), 0)
	}

	switch *app {
	case "gauss":
		cfg := apps.DefaultGaussConfig(*size, *procs)
		r, err := apps.RunGaussPlatinum(pl, cfg)
		if err != nil {
			return fail(err)
		}
		if r.Checksum != apps.GaussReferenceChecksum(cfg) {
			return fail(fmt.Errorf("gauss checksum mismatch: %#x", r.Checksum))
		}
	case "mergesort":
		cfg := apps.DefaultMergeSortConfig(*procs)
		if *size > 0 {
			cfg.Words = *size
		}
		r, err := apps.RunMergeSort(pl, cfg)
		if err != nil {
			return fail(err)
		}
		if !r.Sorted {
			return fail(fmt.Errorf("mergesort output not sorted"))
		}
	case "backprop":
		cfg := apps.DefaultBackpropConfig(*procs)
		if *size > 0 && *size < 1000 {
			cfg.Epochs = *size
		}
		if _, err := apps.RunBackprop(pl, cfg); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown app %q", *app))
	}

	rec := pl.K.Spans()
	spans := rec.Spans()
	if rec.Dropped() > 0 {
		fmt.Fprintf(stderr, "platinum-trace: warning: %d spans dropped (retention cap); validation and export are partial\n",
			rec.Dropped())
	}

	if *validate {
		if err := span.ValidateNesting(spans); err != nil {
			return fail(fmt.Errorf("nesting: %w", err))
		}
		if err := span.Reconcile(spans, pl.K.TotalAccount()); err != nil {
			return fail(fmt.Errorf("reconcile: %w", err))
		}
		totals := span.SelfTotals(spans)
		fmt.Fprintf(stdout, "ok: %d spans nest and reconcile exactly over %v virtual time\n",
			len(spans), pl.Elapsed())
		for _, c := range span.ReconciledCauses {
			fmt.Fprintf(stdout, "  %-15v %14v\n", c, totals[c])
		}
		return 0
	}

	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	if *text {
		if _, err := span.Format(w, spans); err != nil {
			return fail(err)
		}
		return 0
	}
	var tracks []span.CounterTrack
	if *counters > 0 {
		tracks = counterTracks(pl.K.CauseSeries(), rec.CountSeries())
	}
	if err := span.WriteChromeWith(w, spans, tracks); err != nil {
		return fail(err)
	}
	if *out != "" {
		fmt.Fprintf(stderr, "platinum-trace: %d spans over %v -> %s\n",
			len(spans), pl.Elapsed(), *out)
	}
	return 0
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
