package exp

import (
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

// TestParallelismTableIdentical is the harness regression gate: running
// an experiment's simulations 8 at a time must render byte-identically
// to running them one at a time.
func TestParallelismTableIdentical(t *testing.T) {
	for _, id := range []string{"fig1", "policy-ablation", "basic-ops"} {
		serial := render(t, id, Options{Quick: true, Parallelism: 1})
		parallel := render(t, id, Options{Quick: true, Parallelism: 8})
		if serial != parallel {
			t.Fatalf("%s output differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", id, serial, parallel)
		}
	}
}

// TestForEachOrderAndErrors checks the worker pool runs every job,
// counts each in Options.Progress, and reports the lowest-index error
// regardless of completion order.
func TestForEachOrderAndErrors(t *testing.T) {
	progress := &Progress{}
	o := Options{Parallelism: 4, Progress: progress}
	ran := make([]bool, 100)
	if err := forEach(o, len(ran), func(i int) error { ran[i] = true; return nil }); err != nil {
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

	first := forEach(o, 10, func(i int) error {
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
