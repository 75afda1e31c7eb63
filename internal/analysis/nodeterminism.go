package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerNoDeterminism enforces the simulator's reproducibility
// contract in every package under internal/ except internal/analysis:
// every run with the same inputs must produce byte-identical reports,
// whether the harness runs -j1 or -j8. Because no internal package
// imports module code outside internal/, a source anywhere in the
// simulation's call graph is flagged in the package it is written in.
//
// Three bug classes break that contract and are flagged:
//
//   - reading the wall clock (time.Now, time.Since): simulated time is
//     the only clock the simulation may observe;
//   - the unseeded top-level math/rand functions, whose global source
//     makes runs irreproducible (construct a seeded *rand.Rand
//     instead; rand.New/rand.NewSource/rand.NewZipf are fine);
//   - ranging over a map while calling a scheduler-, span-, or
//     output-emitting function in the loop body: Go randomizes map
//     iteration order, so anything emitted from inside the loop — a
//     table row, a JSON record, a scheduling step — changes order
//     between runs. Collect into a slice and sort before emitting.
var AnalyzerNoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "forbid wall-clock reads, unseeded math/rand and map-ordered emission under internal/",
	Run:  runNoDeterminism,
}

func runNoDeterminism(pass *Pass) error {
	if !isDeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkWallClock(pass, n)
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkMapRangeEmission(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkWallClock flags uses of time.Now or time.Since — both read the
// host's wall clock, which must never influence a simulation.
func checkWallClock(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.ObjectOf(sel.Sel)
	if pkgPathOf(obj) != "time" {
		return
	}
	if name := obj.Name(); name == "Now" || name == "Since" {
		pass.Reportf(sel.Pos(), "time.%s reads the wall clock; simulation code must use virtual time (sim.Time) only", name)
	}
}

// globalRandAllowed are the math/rand package-level functions that do
// not touch the global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// checkGlobalRand flags top-level math/rand (and math/rand/v2)
// functions, which draw from a process-global, unseeded source.
func checkGlobalRand(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.ObjectOf(sel.Sel)
	path := pkgPathOf(obj)
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fnRecv(fn) != nil || globalRandAllowed[fn.Name()] {
		return
	}
	pass.Reportf(sel.Pos(), "rand.%s uses the unseeded global source; use a seeded *rand.Rand so runs are reproducible", fn.Name())
}

// checkMapRangeEmission flags a range over a map whose body calls an
// emitting function: the emission order then follows Go's randomized
// map iteration order. One report per loop is enough.
func checkMapRangeEmission(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if name := emitCallName(pass, call); name != "" {
			pass.Reportf(rng.Pos(), "range over map calls %s in its body; map iteration order is randomized — collect keys, sort, then emit", name)
			found = true
		}
		return !found
	})
}

// emitCallName classifies call as order-observable emission and returns
// a display name for it, or "" when the call is harmless. Emission
// means: writing program output (fmt print family, io.Writer-style
// Write methods, json.Encoder.Encode), stepping the simulation
// scheduler (sim.Thread / sim.Engine methods that advance, charge,
// block or spawn), or recording trace state (span.Recorder, core's
// event tracer).
func emitCallName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	switch path := pkgPathOf(fn); {
	case path == "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return "fmt." + name
		}
	case path == "encoding/json" && name == "Encode":
		return "json.Encoder.Encode"
	case pathHasSuffix(path, "internal/sim"):
		switch name {
		case "Advance", "AdvanceTo", "Charge", "Attribute", "Yield",
			"Block", "Unblock", "Spawn", "Run":
			return "sim." + recvQual(fn) + name
		}
	case pathHasSuffix(path, "internal/span"):
		switch name {
		case "Record", "Begin":
			return "span." + recvQual(fn) + name
		}
	case pathHasSuffix(path, "internal/core"):
		if name == "trace" {
			return "core.System.trace"
		}
	}
	// Writer-style methods regardless of package: emitting through any
	// io.Writer (files, buffers destined for reports) from map order is
	// just as order-revealing.
	if fnRecv(fn) != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return recvQual(fn) + name
		}
	}
	return ""
}

// recvQual returns "Recv." for methods, "" for functions, so messages
// read sim.Thread.Advance rather than sim.Advance.
func recvQual(fn *types.Func) string {
	recv := fnRecv(fn)
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}
