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
	"sync"
	"sync/atomic"

	"platinum/internal/mach"
)

// Options tune experiment scale.
type Options struct {
	// Quick scales problem sizes down for CI; the full sizes are the
	// paper's.
	Quick bool

	// Parallelism bounds how many independent simulation runs an
	// experiment may execute concurrently on the host. Each data point
	// of a sweep is its own deterministic simulation on its own engine,
	// so runs never share state; results are collected in enumeration
	// order, making the output identical at any setting. Zero or
	// negative means runtime.NumCPU().
	Parallelism int

	// Topology is a user-supplied machine description for experiments
	// that accept one (topo-custom; see platinum-bench -topology and
	// TOPOLOGY.md). Nil for the built-in machines.
	Topology *mach.Topology

	// Progress, when non-nil, counts the runs forEach finishes (bench/
	// reports the count as exp.sim_runs). Purely observational: results
	// are identical with or without it.
	Progress *Progress
}

// parallelism resolves the effective worker count.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// forEach runs jobs 0..n-1, each an independent simulation, on a
// worker pool bounded by o.parallelism(). Jobs communicate results by
// writing to caller-owned slots indexed by job number, so output order
// is deterministic regardless of scheduling. All jobs run even if one
// fails; the lowest-index error is returned, so failures are
// deterministic too.
func forEach(o Options, n int, job func(i int) error) error {
	workers := o.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			err := job(i)
			o.Progress.RunDone()
			if err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	// atomic.Int64 rather than atomic.AddInt64 on a plain int64: the
	// typed wrapper makes a stray plain access unrepresentable.
	// The atomicsafe analyzer rejects the package-level form.
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = job(i)
				o.Progress.RunDone()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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

// Experiment is one reproducible paper artifact.
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
