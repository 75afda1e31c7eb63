package analysis

import (
	"cmp"
	"fmt"
	"slices"
)

// Finding is one diagnostic with a human-readable position.
type Finding struct {
	Analyzer string // short name, e.g. "chargecause"
	File     string // path as recorded by the loader
	Line     int    // 1-based
	Col      int    // 1-based
	Message  string
}

// Pos formats the finding's position as file:line:col.
func (f Finding) Pos() string { return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col) }

// Run executes every analyzer over every package and returns the
// findings sorted by file, line, column, analyzer and message — an
// order independent of analyzer execution order. Each analyzer sees
// one package at a time and reports only on that package.
func Run(analyzers []*Analyzer, pkgs []*Package) []Finding {
	var found []Finding
	for _, pkg := range pkgs {
		for _, an := range analyzers {
			an.Run(&Pass{
				Analyzer: an,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				findings: &found,
			})
		}
	}
	slices.SortFunc(found, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Analyzer, b.Analyzer),
			cmp.Compare(a.Message, b.Message))
	})
	return found
}
