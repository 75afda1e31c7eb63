// Package exp is the experiment harness: one named experiment per table
// and figure in the paper's evaluation, each regenerating the
// corresponding rows or speedup series on the simulated machine. The
// harness is shared by cmd/platinum-bench, the repository's benchmark
// suite, and EXPERIMENTS.md.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"platinum/internal/mach"
)

// Options tune experiment scale.
type Options struct {
	// Quick scales problem sizes down for CI; the full sizes are the
	// paper's.
	Quick bool

	// Parallelism bounds how many simulation runs execute at once on the
	// host. Each run is its own deterministic simulation on its own
	// engine, so runs never share state, and results are collected in
	// enumeration order: the output is identical at any setting. Under
	// RunSuite the bound holds for the whole suite, whose experiments
	// share the slots; Experiment.Run alone uses them for its own runs.
	// Zero or negative means runtime.NumCPU().
	Parallelism int

	// Topology is a user-supplied machine description for experiments
	// that accept one (topo-custom; see platinum-bench -topology and
	// TOPOLOGY.md). Nil for the built-in machines.
	Topology *mach.Topology

	// Progress, when non-nil, counts the simulation runs finished
	// (bench/ reports the count as exp.sim_runs). Purely observational:
	// results are identical with or without it.
	Progress *Progress

	pool *pool // the job pool of the suite the experiment runs in
}

// parallelism resolves the effective worker count.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// RunSuite runs exps over one pool of o.Parallelism slots and returns
// their tables in order. Every experiment starts at once; their runs
// share the slots, costliest first across the suite, and two runs whose
// specs are equal but for fresh are simulated once within the call (not
// across calls). each, when non-nil, is handed table i as soon as it and
// every earlier table are done. The error is the first in exps order,
// whichever experiment failed first; no table after it goes to each.
func RunSuite(o Options, exps []Experiment, each func(i int, t *Table) error) ([]*Table, error) {
	o.pool = newPool(o.parallelism())
	defer o.pool.close()
	tabs := make([]*Table, len(exps))
	errs := make([]error, len(exps))
	done := make([]chan struct{}, len(exps))
	for i, e := range exps {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			tabs[i], errs[i] = e.Run(o)
		}()
	}
	var err error
	for i, e := range exps {
		<-done[i] // even after a failure: no experiment outlives the call
		switch {
		case err != nil:
		case errs[i] != nil:
			err = fmt.Errorf("%s: %w", e.ID, errs[i])
		case each != nil:
			err = each(i, tabs[i])
		}
	}
	if err != nil {
		return nil, err
	}
	return tabs, nil
}

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteTo renders the table with aligned columns.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	// Size widths to the widest row, not just the header, so rows with
	// more cells than the header render instead of panicking.
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Experiment is one reproducible paper artifact. Run called alone is
// a suite of one: its runs get a pool of Options.Parallelism slots.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Run   func(Options) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	run := e.Run
	e.Run = func(o Options) (*Table, error) {
		if o.pool == nil { // called alone: a suite of one
			o.pool = newPool(o.parallelism())
			defer o.pool.close()
		}
		return run(o)
	}
	registry[e.ID] = e
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment, sorted by id.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// procSweep returns the processor counts for speedup curves.
func procSweep(o Options) []int {
	if o.Quick {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 3, 4, 6, 8, 10, 12, 14, 16}
}

// The table helpers format with strconv rather than fmt, as
// sim.Time.String does, so that a run's allocation count does not
// depend on when a collection empties fmt's printer pool.
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string   { return strconv.Itoa(v) }
