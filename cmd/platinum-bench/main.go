// Command platinum-bench regenerates the paper's tables and figures on
// the simulated machine.
//
// Usage:
//
//	platinum-bench [-quick] [-exp id[,id...]] [-j N] [-json] [-list]
//	               [-topology file.json]
//	               [-cpuprofile file] [-memprofile file]
//
// With no -exp it runs every experiment. -quick scales problem sizes
// down (the full sizes are the paper's). Every experiment starts at
// once, and -j bounds how many simulation runs execute concurrently in
// the whole run (default: all CPUs; at least 1): the experiments share
// the slots, the longest runs go first, and a run two experiments both
// need is simulated once. The tables are identical at any setting and
// print in -exp order as each is done; each one's wall time runs from
// the start of the run to that experiment's end, overlapping the
// others'. -json emits one JSON object per experiment instead of
// aligned tables. -list prints the experiment index and exits.
// -topology loads a machine description in the TOPOLOGY.md JSON format
// for experiments that accept one (topo-custom). -cpuprofile /
// -memprofile write runtime/pprof profiles of the run for `go tool
// pprof` (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"platinum/internal/exp"
	"platinum/internal/mach"
)

// jsonResult is the machine-readable form of one experiment's table.
type jsonResult struct {
	ID          string     `json:"id"`
	Paper       string     `json:"paper"`
	Title       string     `json:"title"`
	Header      []string   `json:"header"`
	Rows        [][]string `json:"rows"`
	Notes       []string   `json:"notes,omitempty"`
	WallSeconds float64    `json:"wall_seconds"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against explicit streams so tests can drive
// every CLI path; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("platinum-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run scaled-down problem sizes")
	ids := fs.String("exp", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	jobs := fs.Int("j", runtime.NumCPU(), "max concurrent simulation runs, shared by every experiment of the run")
	jsonOut := fs.Bool("json", false, "emit one JSON object per experiment")
	topoFile := fs.String("topology", "", "topology JSON file (TOPOLOGY.md format) for topo-custom")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "platinum-bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "platinum-bench: -j %d: must be at least 1\n", *jobs)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "platinum-bench:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "platinum-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "platinum-bench: %v\n", err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Paper)
		}
		return 0
	}

	var todo []exp.Experiment
	if *ids == "" {
		todo = exp.All()
	} else {
		for _, id := range strings.Split(*ids, ",") {
			e, ok := exp.Find(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "platinum-bench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}

	opts := exp.Options{Quick: *quick, Parallelism: *jobs}
	if *topoFile != "" {
		topo, err := mach.LoadTopology(*topoFile)
		if err != nil {
			return fail(err)
		}
		opts.Topology = topo
	}

	start := time.Now() // every experiment's start
	walls := make([]float64, len(todo))
	for i := range todo {
		run := todo[i].Run
		todo[i].Run = func(o exp.Options) (*exp.Table, error) {
			defer func() { walls[i] = time.Since(start).Seconds() }()
			return run(o)
		}
	}
	enc := json.NewEncoder(stdout)
	_, err := exp.RunSuite(opts, todo, func(i int, tab *exp.Table) error {
		if *jsonOut {
			return enc.Encode(jsonResult{
				ID: tab.ID, Paper: todo[i].Paper, Title: tab.Title,
				Header: tab.Header, Rows: tab.Rows, Notes: tab.Notes,
				WallSeconds: walls[i],
			})
		}
		if _, err := tab.WriteTo(stdout); err != nil {
			return err
		}
		_, err := fmt.Fprintf(stdout, "(%s wall time: %.1fs)\n\n", tab.ID, walls[i])
		return err
	})
	if err != nil {
		return fail(err)
	}
	return 0
}
