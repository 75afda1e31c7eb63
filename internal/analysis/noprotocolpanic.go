package analysis

import "go/ast"

// AnalyzerNoProtocolPanic locks in the protocol-hardening pass
// permanently: internal/core and internal/mach — the coherency protocol
// and machine model every workload runs through — report violated
// invariants as errors (core.ErrInvariant and friends), never by
// panicking. A panic in a protocol path kills the stress harness
// before it can shrink and dump a reproducer, loses the flight-recorder
// context, and turns a diagnosable invariant violation into a crash.
//
// Every call to the builtin panic in non-test protocol code is flagged.
// There is deliberately no carve-out for "impossible" cases: impossible
// cases are what ErrInvariant exists to report.
var AnalyzerNoProtocolPanic = &Analyzer{
	Name: "noprotocolpanic",
	Run:  runNoProtocolPanic,
}

func runNoProtocolPanic(pass *Pass) {
	if !isProtocolPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			// The builtin has no package; a local function named panic
			// (however ill-advised) would resolve to a *types.Func with
			// a package and is not the builtin.
			if obj := pass.ObjectOf(id); obj != nil && obj.Pkg() != nil {
				return true
			}
			pass.Reportf(call.Pos(),
				"panic in a protocol path: return an error (see core.ErrInvariant) so harnesses can capture and shrink the failure")
			return true
		})
	}
}
