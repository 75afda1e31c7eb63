package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platinum/internal/apps"
)

// TestOnlyExecutorBootsPlatforms fails on any use, outside run.go, of
// the calls that boot, pool or check an app run's platform: every app
// run of every experiment goes through runAll, so every one is
// conservation- and answer-checked and its pool key is derived.
func TestOnlyExecutorBootsPlatforms(t *testing.T) {
	banned := map[string]bool{
		"apps.NewPlatinumPlatform":  true,
		"apps.NewUMAPlatform":       true,
		"apps.AcquirePlatform":      true,
		"apps.ReleasePlatform":      true,
		"metrics.CheckConservation": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "run.go" {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && banned[pkg.Name+"."+sel.Sel.Name] {
				t.Errorf("%s: %s.%s outside the executor: list a runSpec and call runAll",
					fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}

// TestAgreeNamesBothRuns checks the answer check on fabricated results:
// runs of one input must agree whatever their thread count, machine or
// program variant, runs of different inputs need not, and a mismatch
// names both specs.
func TestAgreeNamesBothRuns(t *testing.T) {
	g := func(prog program, n, procs int) runSpec {
		return runSpec{prog: prog, app: apps.DefaultGaussConfig(n, procs)}
	}
	slow := runSpec{prog: gaussPlatinum, app: apps.GaussConfig{N: 240, Threads: 16, Seed: 7, OpCost: 1}}
	specs := []runSpec{
		g(gaussPlatinum, 240, 1),
		g(gaussSMP, 240, 16),
		g(gaussPlatinum, 160, 8),                              // another matrix
		{prog: matMul, app: apps.DefaultMatMulConfig(240, 4)}, // another program
		{prog: sorGrid, app: apps.DefaultSORConfig(64, 256, 2)},
		{prog: sorGrid, app: apps.DefaultSORConfig(64, 128, 2)}, // another grid
		{prog: backprop, app: apps.DefaultBackpropConfig(4)},    // no checksum
		{prog: backprop, app: apps.DefaultBackpropConfig(8)},
		slow, // OpCost changes the time, not the answer
	}
	res := []runResult{{checksum: 1}, {checksum: 1}, {checksum: 2}, {checksum: 3},
		{checksum: 4}, {checksum: 5}, {}, {checksum: 6}, {checksum: 1}}
	if err := agree(specs, res); err != nil {
		t.Fatalf("agree: %v", err)
	}
	for _, bad := range []struct {
		i    int
		want string
	}{
		{1, "gauss-smp"},
		{8, "OpCost:1ns"},
	} {
		res[bad.i].checksum = 9
		err := agree(specs, res)
		res[bad.i].checksum = 1
		if err == nil {
			t.Fatalf("run %d's different answer passed", bad.i)
		}
		msg := err.Error()
		if !strings.Contains(msg, specs[0].String()) || !strings.Contains(msg, bad.want) {
			t.Errorf("error does not name both runs (%s, %s): %v", specs[0], bad.want, err)
		}
	}
}
