// Package analysistest checks analyzers against fixture packages whose
// source carries expectation comments of the form
//
//	code() // want `regex` `another regex`
//
// modeled on golang.org/x/tools' analysistest but reimplemented on the
// stdlib-only loader in internal/analysis. Every finding must match
// one unclaimed want expectation on its exact line, and every
// expectation must be claimed — both extra and missing diagnostics fail
// the test.
package analysistest

import (
	"regexp"
	"strings"
	"sync"
	"testing"

	"platinum/internal/analysis"
)

// want is one parsed expectation: a regex that must match a finding's
// message on the same file and line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	used bool
}

// wantRE extracts backquoted or double-quoted patterns from the text
// after "// want ".
var wantRE = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)+)\"")

// loaders holds one Loader per fixture root, so the standard-library
// packages the fixtures import are type-checked once per test process
// rather than once per Run.
var (
	loadersMu sync.Mutex
	loaders   = map[string]*analysis.Loader{}
)

// load loads importPaths through srcroot's shared loader.
func load(srcroot string, importPaths []string) ([]*analysis.Package, error) {
	loadersMu.Lock()
	defer loadersMu.Unlock()
	if loaders[srcroot] == nil {
		loaders[srcroot] = analysis.NewLoader(map[string]string{"": srcroot})
	}
	return loaders[srcroot].Load(importPaths...)
}

// Run loads the fixture packages at importPaths from the GOPATH-style
// tree rooted at srcroot, runs the analyzers over them, and compares
// the findings against the packages' want comments.
func Run(t *testing.T, srcroot string, analyzers []*analysis.Analyzer, importPaths ...string) {
	t.Helper()
	pkgs, err := load(srcroot, importPaths)
	if err != nil {
		t.Fatalf("loading %v: %v", importPaths, err)
	}
	findings := analysis.Run(analyzers, pkgs)
	wants := collectWants(t, pkgs)
	for _, f := range findings {
		if claimWant(wants, f) == nil {
			t.Errorf("%s: unexpected finding [%s] %s", f.Pos(), f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: no finding matched want %s", w.file, w.line, w.raw)
		}
	}
}

// collectWants parses every want comment in the loaded packages' files.
func collectWants(t *testing.T, pkgs []*analysis.Package) []*want {
	t.Helper()
	var out []*want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					matches := wantRE.FindAllStringSubmatch(text, -1)
					if len(matches) == 0 {
						t.Fatalf("%s:%d: want comment carries no quoted pattern", pos.Filename, pos.Line)
					}
					for _, m := range matches {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						out = append(out, &want{file: pos.Filename, line: pos.Line, re: re, raw: "`" + pat + "`"})
					}
				}
			}
		}
	}
	return out
}

// claimWant finds, marks used, and returns the first unclaimed want on
// f's line whose pattern matches f's message, or nil.
func claimWant(wants []*want, f analysis.Finding) *want {
	for _, w := range wants {
		if !w.used && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
			w.used = true
			return w
		}
	}
	return nil
}
