package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerChargeCause guards the cost-attribution conservation
// invariant (Σ causes == total charged time, zero unattributed) at its
// entry points: every sim.Thread.Charge and sim.Thread.Attribute call
// must name a cause constant declared in internal/sim. A literal, a
// Cause(n) conversion, or a constant declared elsewhere would mint an
// attribution bucket the metrics schema, the reconciliation pass and
// the per-cause reports know nothing about — silently diluting the
// invariant rather than breaking a test.
//
// Accepted first arguments:
//
//   - a declared internal/sim cause constant (sim.CauseFault, ...);
//   - a variable or parameter of type sim.Cause, provided every
//     assignment to it inside the function is itself accepted (the
//     common cause := CauseRemoteAccess; if local { cause = ... } flow);
//   - a struct field, map/slice element or function parameter of type
//     sim.Cause — flow the analyzer trusts because the value had to be
//     produced by an accepted expression at some other checked site.
//
// Flagged: basic literals, conversions to Cause, cause constants
// declared outside internal/sim, and calls computing a cause.
var AnalyzerChargeCause = &Analyzer{
	Name: "chargecause",
	Run:  runChargeCause,
}

func runChargeCause(pass *Pass) {
	if pathHasSuffix(pass.Pkg.Path(), "internal/sim") {
		// The defining package may manipulate causes freely (it declares
		// them, iterates them, and implements the accounting itself).
		return
	}
	for _, f := range pass.Files {
		// Walk function by function so assignments to a cause variable
		// can be resolved within its enclosing function body.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkChargeCall(pass, fd.Body, call)
				return true
			})
		}
	}
}

// checkChargeCall validates the cause argument of a Charge/Attribute
// call on sim.Thread.
func checkChargeCall(pass *Pass, scope *ast.BlockStmt, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fnRecv(fn) == nil {
		return
	}
	name := fn.Name()
	if name != "Charge" && name != "Attribute" {
		return
	}
	if !pathHasSuffix(pkgPathOf(fn), "internal/sim") || len(call.Args) < 1 {
		return
	}
	if bad, why := badCauseExpr(pass, scope, call.Args[0], 0); bad {
		pass.Reportf(call.Args[0].Pos(),
			"%s called with %s; pass a cause constant declared in internal/sim so the attribution stays within the declared causes", name, why)
	}
}

// badCauseExpr reports whether e is an unacceptable cause expression
// and why. depth bounds recursion through local variable assignments.
func badCauseExpr(pass *Pass, scope *ast.BlockStmt, e ast.Expr, depth int) (bool, string) {
	if depth > 4 {
		return false, ""
	}
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.BasicLit:
		return true, "a raw literal"
	case *ast.CallExpr:
		// Either a conversion Cause(x) or a computed cause — both hide
		// the provenance of the value.
		if fn := calleeFunc(pass.Info, e); fn != nil {
			return true, "a cause computed by " + fn.Name() + "()"
		}
		return true, "a Cause conversion"
	case *ast.Ident:
		return badCauseIdent(pass, scope, e, depth)
	case *ast.SelectorExpr:
		obj := pass.ObjectOf(e.Sel)
		switch obj := obj.(type) {
		case *types.Const:
			if !pathHasSuffix(pkgPathOf(obj), "internal/sim") {
				return true, "constant " + obj.Name() + " declared outside internal/sim"
			}
			return false, ""
		case *types.Var:
			return false, "" // struct field of type Cause: trusted flow
		}
		return false, ""
	default:
		// Index expressions, etc.: typed flow the analyzer trusts.
		return false, ""
	}
}

// badCauseIdent resolves an identifier cause argument: constants must
// be internal/sim's; local variables are validated through every
// assignment to them in the enclosing function.
func badCauseIdent(pass *Pass, scope *ast.BlockStmt, id *ast.Ident, depth int) (bool, string) {
	obj := pass.ObjectOf(id)
	switch obj := obj.(type) {
	case *types.Const:
		if !pathHasSuffix(pkgPathOf(obj), "internal/sim") {
			return true, "constant " + obj.Name() + " declared outside internal/sim"
		}
		return false, ""
	case *types.Var:
		// Parameters and fields are trusted; locals are traced through
		// their assignments inside this function.
		for _, rhs := range assignmentsTo(pass, scope, obj) {
			if bad, why := badCauseExpr(pass, scope, rhs, depth+1); bad {
				return true, "variable " + obj.Name() + " assigned from " + why
			}
		}
		return false, ""
	}
	return false, ""
}

// assignmentsTo collects every expression assigned to obj within body:
// short variable declarations, plain assignments, and var declarations
// with initializers.
func assignmentsTo(pass *Pass, body *ast.BlockStmt, obj *types.Var) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || pass.ObjectOf(lid) != obj {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					out = append(out, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, lhs := range n.Names {
				if pass.ObjectOf(lhs) != obj || i >= len(n.Values) {
					continue
				}
				out = append(out, n.Values[i])
			}
		}
		return true
	})
	return out
}
