package analysis

import "go/ast"

// AnalyzerAtomicSafe keeps every atomic variable typed: any call to a
// package-level sync/atomic function (atomic.AddInt64(&s.n, 1),
// atomic.LoadUint32(&flag), ...) is a finding. Such a call leaves the
// variable a plain integer that other code can read or write without
// sync/atomic, and one plain access racing an atomic one is undefined
// behavior the race detector only catches when a test hits the
// interleaving. The typed wrappers (atomic.Int64 & co.) make plain
// access unrepresentable, so the mixed-access race cannot be written.
var AnalyzerAtomicSafe = &Analyzer{
	Name: "atomicsafe",
	Run:  runAtomicSafe,
}

func runAtomicSafe(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != nil && fnRecv(fn) == nil && pkgPathOf(fn) == "sync/atomic" {
				pass.Reportf(call.Pos(),
					"atomic.%s on a plain variable lets other code access it without sync/atomic; use an atomic.Int64-style typed wrapper", fn.Name())
			}
			return true
		})
	}
}
