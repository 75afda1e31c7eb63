package analysis_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"platinum/internal/analysis"
	"platinum/internal/analysis/analysistest"
)

// fixtures is the GOPATH-style root of the golden fixture tree.
const fixtures = "testdata/src"

// moduleRoot is the module directory, relative to this package.
const moduleRoot = "../.."

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

// TestScopeLimits runs the full suite over a package outside
// internal/: wall-clock reads, global rand and panics there are out of
// scope and must produce no findings.
func TestScopeLimits(t *testing.T) {
	analysistest.Run(t, fixtures, analysis.All(), "outside")
}

// TestModuleClean runs the full suite over every non-test package of
// the module, so `go test ./...` enforces the invariants the analyzers
// guard. The load must include internal/core: a discovery that finds
// nothing cannot pass.
func TestModuleClean(t *testing.T) {
	pkgs := loadModule(t)
	if !slices.ContainsFunc(pkgs, func(p *analysis.Package) bool { return p.Types.Path() == "platinum/internal/core" }) {
		t.Fatalf("loaded %d packages, none of them platinum/internal/core", len(pkgs))
	}
	findings := analysis.Run(analysis.All(), pkgs)
	for _, f := range findings {
		t.Errorf("%s: [platinum/%s] %s", f.Pos(), f.Analyzer, f.Message)
	}
	t.Logf("%d packages, %d analyzers, %d findings", len(pkgs), len(analysis.All()), len(findings))
}

// TestRegistry checks that All() registers, in order, exactly the
// analyzers README's "Static analysis" section lists as bullets, each
// with a run function.
func TestRegistry(t *testing.T) {
	readme, err := os.ReadFile(moduleRoot + "/README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Static analysis\n")
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^- \\*\\*`([a-z]+)`\\*\\*").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	var registered []string
	for _, an := range analysis.All() {
		registered = append(registered, an.Name)
		if an.Run == nil {
			t.Errorf("analyzer %q is missing its run function", an.Name)
		}
	}
	if !slices.Equal(registered, documented) {
		t.Errorf("All() registers %v, but README's \"Static analysis\" lists %v", registered, documented)
	}
}
