package exp

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platinum/internal/core"
)

var (
	update = flag.Bool("update", false, "rewrite golden files")
	full   = flag.Bool("full", false, "run TestAllExperimentsRunFull: every experiment at full size")
	jobs   = flag.Int("j", 0, "Options.Parallelism of the golden suites (0: all CPUs)")
)

// TestAllExperimentsRunQuick runs every registered experiment in quick
// mode as one suite (RunSuite, -j slots) and compares each rendered
// table byte for byte against testdata/quick/<id>.txt. The goldens are
// the gate that every simulated result is unchanged; a deliberate
// fidelity change regenerates them with
// go test ./internal/exp -run TestAllExperimentsRunQuick -update.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a while even in quick mode")
	}
	checkGoldens(t, Options{Quick: true, Parallelism: *jobs}, "quick")
}

// TestAllExperimentsRunFull is TestAllExperimentsRunQuick at the
// paper's sizes, against testdata/full/<id>.txt. It takes about 15 s
// on two cores, so it runs only with -full:
// go test ./internal/exp -run TestAllExperimentsRunFull -full -timeout 15m
// (add -j 1 for one slot).
func TestAllExperimentsRunFull(t *testing.T) {
	if !*full {
		t.Skip("full-size experiments run only with -full")
	}
	checkGoldens(t, Options{Parallelism: *jobs}, "full")
}

// checkGoldens runs every registered experiment with o as one suite,
// sanity-checks each table and compares its rendering with
// testdata/<dir>/<id>.txt. Under -update it first rewrites each golden
// in the reference mode (see reference), the one rendering the
// determinism gates compare with.
func checkGoldens(t *testing.T, o Options, dir string) {
	all := All()
	for _, e := range all {
		if *update {
			if err := os.WriteFile(filepath.Join("testdata", dir, e.ID+".txt"), []byte(reference(t, e.ID, o)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, err := RunSuite(o, all, func(i int, tab *Table) error {
		e := all[i]
		t.Run(e.ID, func(t *testing.T) {
			if tab.ID != e.ID {
				t.Errorf("table id %q != experiment id %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %v has %d cells, header has %d", row, len(row), len(tab.Header))
				}
			}
			var sb strings.Builder
			if _, err := tab.WriteTo(&sb); err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if !strings.Contains(sb.String(), e.ID) {
				t.Error("rendered table missing id")
			}
			golden := filepath.Join("testdata", dir, e.ID+".txt")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("table drifted from %s:\ngot:\n%swant:\n%s", golden, got, want)
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	want := []string{
		"app-suite", "basic-ops", "blockxfer-concurrency",
		"colocate-options", "fig1", "fig5", "fig6", "freeze-anecdote",
		"gauss-compare", "machine-generations", "page-size-sweep",
		"policy-ablation", "pt-variants", "repl-source", "scaling", "t1-sweep",
		"table1", "table1-empirical", "topo-custom", "topo-nodes",
		"topo-skew", "topo-tiers",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Paper == "" {
			t.Errorf("%s: empty paper reference", e.ID)
		}
	}
	if _, ok := Find("fig1"); !ok {
		t.Error("Find(fig1) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
}

// TestMeasureOpFailsOnFaultError checks that basic-ops' measurement
// harness fails a scenario whose op faults on an unmapped page, instead
// of printing a timing.
func TestMeasureOpFailsOnFaultError(t *testing.T) {
	s := opScenario{pages: 1, setup: [][]ref{{{}}}, op: ref{proc: 1, vpn: 7}} // vpn 7 is unmapped
	_, err := s.measure()
	var um *core.ErrUnmapped
	if !errors.As(err, &um) {
		t.Fatalf("measure = %v, want ErrUnmapped", err)
	}
}
