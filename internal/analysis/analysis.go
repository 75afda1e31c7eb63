// Package analysis is a self-contained static-analysis suite that
// statically enforces invariants every quantitative claim in this
// reproduction rests on at run time: deterministic simulation code
// (byte-identical reports across -j1/-j8), exact cause attribution,
// panic-free protocol paths, begin/end-paired causal spans, and typed
// atomics.
//
// The package mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer with a Run function over a Pass carrying the type-checked
// package — but is built entirely on the standard library (go/parser,
// go/types and the "source" importer), so it needs no module downloads
// and runs in a hermetic build. Every analyzer is single-pass: it reads
// one package and reports only on that package. See the analyzer files
// (nodeterminism, chargecause, spanpair, noprotocolpanic, atomicsafe)
// for what is enforced and why. TestModuleClean runs the suite over
// every package of the module, so `go test ./...` fails on any finding.
// There is no suppression directive: a false positive is fixed in the
// analyzer or in the code.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check. Name is the short identifier reported
// as "platinum/<name>"; Run checks one package, reporting each
// finding through Pass.Reportf. README's "Static
// analysis" list documents what each analyzer enforces.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Pass carries one type-checked, non-test package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object an identifier denotes, consulting both
// uses and definitions.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// calleeFunc resolves the called function or method of call, or nil for
// calls through function-valued expressions and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// fnRecv returns fn's receiver variable, or nil for plain functions.
// (Equivalent to fn.Signature().Recv(), spelled via Type() so the
// module keeps building under the go.mod language version.)
func fnRecv(fn *types.Func) *types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Recv()
}

// pkgPathOf returns the import path of the package obj is declared in
// ("" for builtins and universe-scope objects).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// pathHasSuffix reports whether import path has the given slash-aware
// suffix: "platinum/internal/sim" matches suffix "internal/sim", but
// "x/notinternal/sim" does not. Matching by suffix keeps the analyzers
// applicable both to the real module and to fixture trees that mirror
// its layout under testdata.
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// isDeterministicPackage reports whether path is under the module's
// internal/ tree but outside internal/analysis: the simulation, its
// models, harnesses and recorders, whose output must not depend on the
// host. No internal package imports module code outside internal/, so
// a nondeterminism source is flagged in the package it is written in,
// however long the call chain that reaches it.
func isDeterministicPackage(path string) bool {
	_, rest, ok := strings.Cut("/"+path, "/internal/")
	return ok && rest != "analysis" && !strings.HasPrefix(rest, "analysis/")
}

// protocolPackages are the import-path suffixes of the coherency
// protocol's implementation, where panics were hardened into
// ErrInvariant returns (PR 3) and must not reappear.
var protocolPackages = []string{
	"internal/core",
	"internal/mach",
}

// isProtocolPackage reports whether path is part of the protocol
// implementation covered by noprotocolpanic.
func isProtocolPackage(path string) bool {
	for _, s := range protocolPackages {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// All returns the full analyzer suite in stable registration order.
func All() []*Analyzer {
	return []*Analyzer{
		AnalyzerNoDeterminism,
		AnalyzerChargeCause,
		AnalyzerSpanPair,
		AnalyzerNoProtocolPanic,
		AnalyzerAtomicSafe,
	}
}
