package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerSpanPair keeps causal-span recording reconcilable: a span
// opened with span's Begin API (Recorder.Begin and any Begin*-named
// helper in internal/span) must be closed. An open span that is never
// ended is invisible to the exporter and the per-cause reconciliation
// against sim.Account — a class of drift the runtime check can only
// detect after the fact, as an inexplicable per-cause deficit.
//
// Within the function that calls Begin*, the result must either
//
//   - have End called on it (directly or via defer, including inside a
//     closure declared in the same function), or
//   - escape: be returned, passed to another function, or stored in a
//     struct field, map, slice or channel — ownership transfers, and
//     the receiving code is responsible for ending it (checked at its
//     own Begin sites, or trusted like any handoff).
//
// Flagged: discarding the result, assigning it to _, and holding it in
// a local variable that is never ended and never escapes.
var AnalyzerSpanPair = &Analyzer{
	Name: "spanpair",
	Run:  runSpanPair,
}

func runSpanPair(pass *Pass) {
	if pathHasSuffix(pass.Pkg.Path(), "internal/span") {
		// The span package itself implements the machinery.
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSpanPairs(pass, fd)
		}
	}
}

// isSpanBegin reports whether call invokes a Begin* function or method
// from internal/span.
func isSpanBegin(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Begin") && pathHasSuffix(pkgPathOf(fn), "internal/span")
}

// checkSpanPairs inspects one function for Begin* calls and validates
// each result's disposition.
func checkSpanPairs(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isSpanBegin(pass, call) {
				pass.Reportf(call.Pos(),
					"result of span %s discarded: the span can never be ended and will not reconcile", beginName(pass, call))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isSpanBegin(pass, call) || i >= len(n.Lhs) {
					continue
				}
				lhs, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue // field/index destination: handoff
				}
				if lhs.Name == "_" {
					pass.Reportf(call.Pos(),
						"result of span %s assigned to _: the span can never be ended and will not reconcile", beginName(pass, call))
					continue
				}
				obj, _ := pass.ObjectOf(lhs).(*types.Var)
				if obj == nil {
					continue
				}
				if !endedOrEscapes(pass, fd.Body, n, obj) {
					pass.Reportf(call.Pos(),
						"span %s assigned to %s but %s.End is never called and the span never escapes this function",
						beginName(pass, call), lhs.Name, lhs.Name)
				}
			}
		}
		return true
	})
}

// beginName formats the Begin callee for messages.
func beginName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return "Begin"
	}
	return recvQual(fn) + fn.Name()
}

// endedOrEscapes reports whether, after the assignment stmt that bound
// the Begin result to obj, the function either calls obj.End (possibly
// deferred or inside a nested function literal) or lets obj escape
// (call argument, return value, struct/map/slice store, channel send,
// or reassignment to another variable).
func endedOrEscapes(pass *Pass, body *ast.BlockStmt, binding *ast.AssignStmt, obj *types.Var) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// obj.End(...) or obj.End used as a value (method handle
			// deferred later): any End selection counts as pairing.
			if id, isID := n.X.(*ast.Ident); isID && pass.ObjectOf(id) == obj && n.Sel.Name == "End" {
				ok = true
				return false
			}
		case *ast.Ident:
			if pass.ObjectOf(n) != obj {
				return true
			}
			if escapingUse(body, binding, n) {
				ok = true
				return false
			}
		}
		return true
	})
	return ok
}

// escapingUse reports whether this use of the span variable hands the
// value to code outside the current statement: a call argument, a
// return, a store into a field, map, slice or channel, or assignment to
// a different variable. The binding assignment itself is not a use.
func escapingUse(body *ast.BlockStmt, binding *ast.AssignStmt, id *ast.Ident) bool {
	path := nodePath(body, id)
	// path[len-1] == id; walk outward looking at the immediate context.
	for i := len(path) - 2; i >= 0; i-- {
		switch parent := path[i].(type) {
		case *ast.CallExpr:
			for _, arg := range parent.Args {
				if arg == path[i+1] {
					return true
				}
			}
			return false
		case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		case *ast.AssignStmt:
			if parent == binding {
				return false
			}
			for _, rhs := range parent.Rhs {
				if rhs == path[i+1] {
					return true // copied to another variable or location
				}
			}
			return false
		case *ast.SelectorExpr, *ast.StarExpr, *ast.ParenExpr:
			continue // look further out
		default:
			return false
		}
	}
	return false
}

// nodePath returns the ancestor chain from body down to target
// (inclusive). Node source ranges nest, so the chain is exactly the
// nodes whose range contains target's.
func nodePath(body *ast.BlockStmt, target ast.Node) []ast.Node {
	var path []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if n.Pos() <= target.Pos() && target.End() <= n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}
