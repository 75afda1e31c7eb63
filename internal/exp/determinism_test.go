package exp

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"platinum/internal/apps"
)

// render runs experiment id and returns its table rendered to text.
func render(t *testing.T, id string, o Options) string {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	tab, err := e.Run(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	if _, err := tab.WriteTo(&b); err != nil {
		t.Fatalf("%s: render: %v", id, err)
	}
	return b.String()
}

// TestPoolingTableIdentical is the platform-pool regression gate: the
// rendered tables with pooling off (every run boots a fresh kernel, the
// reference mode) must be byte-identical to the tables with pooling on,
// including on a second pooled pass where every platform is a reused,
// reset kernel rather than a fresh boot. fig1 covers gauss, fig5
// mergesort — the two workloads the pooled hot path was tuned on.
func TestPoolingTableIdentical(t *testing.T) {
	o := Options{Quick: true, Parallelism: 1}
	for _, id := range []string{"fig1", "fig5"} {
		prev := apps.SetPooling(false)
		ref := render(t, id, o)
		apps.SetPooling(true)
		first := render(t, id, o)  // cold pool: fresh boots, warm releases
		second := render(t, id, o) // warm pool: every platform reused
		apps.SetPooling(prev)
		if first != ref {
			t.Fatalf("%s output differs between pooled and reference runs:\n--- pooling off ---\n%s--- pooling on ---\n%s", id, ref, first)
		}
		if second != ref {
			t.Fatalf("%s output differs on reused platforms:\n--- pooling off ---\n%s--- pooled, second pass ---\n%s", id, ref, second)
		}
	}
}

// TestParallelismTableIdentical is the harness regression gate: a
// table must not depend on how many runs go at once or in which order
// they start. The reference is an experiment's one-worker rendering,
// whose runs go in index order; pools of one and of eight workers that
// start its runs longest first (the default), in index order and in
// reverse must render it byte for byte. The reference is rendered
// here, not read from the goldens, so that a golden regenerated after
// an order-dependent bug cannot hide it.
func TestParallelismTableIdentical(t *testing.T) {
	orders := []struct {
		name string
		key  func(task) float64
	}{
		{"longest first", nil},
		{"index order", func(task) float64 { return 0 }},
		{"reversed", func(t task) float64 { return float64(t.i) }},
	}
	// The experiments run side by side, the costliest first.
	for _, id := range []string{"pt-variants", "policy-ablation", "fig1", "basic-ops"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			ref := render(t, id, Options{Quick: true, Parallelism: 1})
			for _, workers := range []int{1, 8} {
				for _, ord := range orders {
					if workers == 1 && ord.name == "index order" {
						continue // the reference's own order
					}
					p := newPool(workers)
					p.key = ord.key
					got := render(t, id, Options{Quick: true, Parallelism: workers, pool: p})
					p.close()
					if got != ref {
						t.Errorf("%d workers, %s: table differs from the one-worker rendering:\n%s--- one worker ---\n%s",
							workers, ord.name, got, ref)
					}
				}
			}
		})
	}
}

// TestPoolStartsLongestFirst checks that a pool starts jobs in
// decreasing cost, equal costs in index order.
func TestPoolStartsLongestFirst(t *testing.T) {
	p := newPool(1)
	defer p.close()
	cost := []float64{1, 5, 3, 5, 0}
	var order []int
	err := p.run(nil, len(cost), func(i int) float64 { return cost[i] }, func(i int) error {
		order = append(order, i)
		return nil
	})
	if want := []int{1, 3, 2, 0, 4}; err != nil || !slices.Equal(order, want) {
		t.Errorf("ran %v (err %v), want %v", order, err, want)
	}
}

// TestSuiteSimulatesSharedRunsOnce checks that a suite simulates once
// each run that several of its experiments make, and renders every
// table as separate Experiment.Run calls do. Fig. 1's T(1) and T(16)
// are also gauss-compare's PLATINUM runs and machine-generations'
// Butterfly Plus runs, and its T(16) is repl-source's first-copy run.
func TestSuiteSimulatesSharedRunsOnce(t *testing.T) {
	ids := []string{"fig1", "gauss-compare", "machine-generations", "repl-source"}
	exps := make([]Experiment, len(ids))
	want := make([]string, len(ids))
	var separate, suite Progress
	for i, id := range ids {
		exps[i], _ = Find(id)
		want[i] = render(t, id, Options{Quick: true, Progress: &separate})
	}
	tabs, err := RunSuite(Options{Quick: true, Progress: &suite}, exps, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range tabs {
		var b strings.Builder
		tab.WriteTo(&b)
		if b.String() != want[i] {
			t.Errorf("%s differs in the suite:\n%s--- separately ---\n%s", ids[i], b.String(), want[i])
		}
	}
	runs, sims := separate.Snapshot().RunsDone, suite.Snapshot().RunsDone
	if shared := runs - sims; shared != 5 {
		t.Errorf("the suite simulated %d of %d runs, want 5 shared", sims, runs)
	}
}

// TestSuiteSharesFreshAndPooledRuns checks that a suite simulates once
// two specs that differ only in fresh.
func TestSuiteSharesFreshAndPooledRuns(t *testing.T) {
	p := newPool(2)
	defer p.close()
	pooled := gaussSpec(Options{Quick: true}, gaussPlatinum, 2)
	fresh := pooled
	fresh.fresh = true
	var progress Progress
	res := make([]runResult, 2)
	if err := p.runShared(&progress, []runSpec{fresh, pooled}, res); err != nil {
		t.Fatal(err)
	}
	if n := progress.Snapshot().RunsDone; n != 1 || res[0].elapsed != res[1].elapsed {
		t.Errorf("simulated %d runs, elapsed %v and %v; want 1 run read twice", n, res[0].elapsed, res[1].elapsed)
	}
}

// TestSuiteReportsFirstFailureInOrder checks that RunSuite returns the
// error of the first failed experiment in the requested order, whichever
// fails first, after handing each the tables before it and none after.
func TestSuiteReportsFirstFailureInOrder(t *testing.T) {
	table1, _ := Find("table1")
	earlyDone := make(chan struct{})
	early := Experiment{ID: "early", Run: func(Options) (*Table, error) {
		defer close(earlyDone)
		return nil, errors.New("failed first")
	}}
	late := Experiment{ID: "late", Run: func(Options) (*Table, error) {
		<-earlyDone
		return nil, errors.New("failed last")
	}}
	var got []string
	_, err := RunSuite(Options{Quick: true}, []Experiment{table1, late, table1, early}, func(i int, tab *Table) error {
		got = append(got, tab.ID)
		return nil
	})
	if err == nil || err.Error() != "late: failed last" || !slices.Equal(got, []string{"table1"}) {
		t.Errorf("RunSuite = %v after tables %v, want late's error after table1", err, got)
	}
}

// TestForEachOrderAndErrors checks the worker pool runs every job,
// counts each in Options.Progress, and reports the lowest-index error
// regardless of completion order.
func TestForEachOrderAndErrors(t *testing.T) {
	progress := &Progress{}
	o := Options{Parallelism: 4, Progress: progress}
	ran := make([]bool, 100)
	if err := forEach(o, len(ran), nil, func(i int) error { ran[i] = true; return nil }); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("job %d never ran", i)
		}
	}
	if got := progress.Snapshot().RunsDone; got != int64(len(ran)) {
		t.Errorf("Progress counted %d finished runs, want %d", got, len(ran))
	}

	first := forEach(o, 10, func(i int) float64 { return float64(i) }, func(i int) error {
		if i == 3 || i == 7 {
			return &jobErr{i}
		}
		return nil
	})
	je, ok := first.(*jobErr)
	if !ok || je.i != 3 {
		t.Fatalf("forEach error = %v, want job 3's error", first)
	}
}

type jobErr struct{ i int }

func (e *jobErr) Error() string { return "job failed" }

// TestTableWideRow checks WriteTo handles rows wider than the header
// (regression: it used to index widths out of range).
func TestTableWideRow(t *testing.T) {
	tab := &Table{
		ID:     "wide",
		Title:  "wide row",
		Header: []string{"a", "b"},
		Rows: [][]string{
			{"1", "2", "3", "4"},
			{"5"},
		},
	}
	var b strings.Builder
	if _, err := tab.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := b.String()
	for _, want := range []string{"3", "4", "5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing cell %q:\n%s", want, out)
		}
	}
}
