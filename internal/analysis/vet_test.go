package analysis_test

import (
	"strings"
	"testing"

	"platinum/internal/analysis"
	"platinum/internal/analysis/analysistest"
)

// fixtures is the GOPATH-style root of the golden fixture tree.
const fixtures = "testdata/src"

func TestNoDeterminism(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerNoDeterminism}, "platinum/internal/exp")
}

func TestChargeCause(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "chargecause")
}

func TestSpanPair(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerSpanPair}, "spanpair")
}

func TestNoProtocolPanic(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerNoProtocolPanic}, "platinum/internal/mach")
}

// TestAtomicSafe checks that package-level sync/atomic calls are
// flagged and the typed wrappers are not.
func TestAtomicSafe(t *testing.T) {
	analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerAtomicSafe}, "atomicsafe")
}

// TestStaleSuppression proves the stale-directive contract both ways:
// a well-formed, unused //lint:ignore fails the run when its named
// analyzer ran, and is left unjudged when it did not (the analyzer
// might have found something in a fuller run).
func TestStaleSuppression(t *testing.T) {
	res := analysistest.Run(t, fixtures, analysis.All(), "stalefix")
	if got := len(res.BadIgnores); got != 1 {
		t.Fatalf("stale directives = %d, want 1: %+v", got, res.BadIgnores)
	}
	msg := res.BadIgnores[0].Message
	if !strings.Contains(msg, "stale //lint:ignore platinum/chargecause") {
		t.Errorf("stale diagnostic does not name the directive: %q", msg)
	}
	if !strings.Contains(msg, "the raw literal this once suppressed was removed") {
		t.Errorf("stale diagnostic does not quote the reason: %q", msg)
	}
	if !res.Failed() {
		t.Errorf("a stale suppression must fail the run")
	}

	res = analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerSpanPair}, "stalefix")
	if res.Failed() {
		t.Errorf("directive naming an analyzer that did not run was judged stale: %+v", res.BadIgnores)
	}
}

// TestScopeLimits runs the full suite over a package outside
// internal/: wall-clock reads, global rand and panics there are out of
// scope and must produce no findings.
func TestScopeLimits(t *testing.T) {
	res := analysistest.Run(t, fixtures, analysis.All(), "outside")
	if res.Failed() {
		t.Errorf("out-of-scope package failed the suite: %+v", res.Findings)
	}
}

// TestSuppression proves the //lint:ignore contract: a well-formed
// directive silences exactly its named analyzer on exactly its line,
// every suppression is counted with its reason, and malformed
// directives fail the run as findings of their own.
func TestSuppression(t *testing.T) {
	res := analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "suppress")
	if got := len(res.Suppressed); got != 2 {
		t.Errorf("suppressed findings = %d, want 2", got)
	}
	for _, s := range res.Suppressed {
		if !s.Suppressed || s.Reason == "" {
			t.Errorf("suppressed finding %s is missing its reason", s.Pos())
		}
	}
	if got := len(res.BadIgnores); got != 3 {
		t.Errorf("malformed directives = %d, want 3: %+v", got, res.BadIgnores)
	}
	if !res.Failed() {
		t.Errorf("live findings and malformed directives must fail the run")
	}
}

// TestSuppressionClean proves a fully suppressed package passes while
// the suppression still shows up in the count — visible, never silent.
func TestSuppressionClean(t *testing.T) {
	res := analysistest.Run(t, fixtures,
		[]*analysis.Analyzer{analysis.AnalyzerChargeCause}, "suppressclean")
	if res.Failed() {
		t.Errorf("fully suppressed package must pass, got findings: %+v", res.Findings)
	}
	if got := len(res.Suppressed); got != 1 {
		t.Errorf("suppressed findings = %d, want 1", got)
	}
}

// TestRegistry pins the suite's registration invariants: stable order,
// unique non-empty names, and a doc line for platinum-vet -list.
func TestRegistry(t *testing.T) {
	want := []string{"nodeterminism", "chargecause", "spanpair", "noprotocolpanic", "atomicsafe"}
	all := analysis.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, an := range all {
		if an.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, an.Name, want[i])
		}
		if an.Doc == "" || an.Run == nil {
			t.Errorf("analyzer %q is missing its doc or run function", an.Name)
		}
	}
}
