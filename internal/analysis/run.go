package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic after suppression processing, with a
// human-readable position. It is the JSON schema of platinum-vet.
type Finding struct {
	Analyzer   string `json:"analyzer"` // short name, e.g. "chargecause"
	File       string `json:"file"`     // path as recorded by the loader
	Line       int    `json:"line"`     // 1-based
	Col        int    `json:"col"`      // 1-based
	Message    string `json:"message"`  //
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"` // the //lint:ignore justification
}

// Pos formats the finding's position as file:line:col.
func (f Finding) Pos() string { return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Col) }

// Result is the outcome of running a suite of analyzers over a set of
// packages.
type Result struct {
	Findings   []Finding `json:"findings"`    // active findings, position-sorted
	Suppressed []Finding `json:"suppressed"`  // findings silenced by //lint:ignore
	BadIgnores []Finding `json:"bad_ignores"` // malformed //lint:ignore directives
}

// Failed reports whether the result should fail the build: any active
// finding or malformed suppression does.
func (r *Result) Failed() bool { return len(r.Findings) > 0 || len(r.BadIgnores) > 0 }

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	line      int // line the directive applies to (its own, or the next)
	analyzers []string
	reason    string
	used      bool
	pos       token.Position
	malformed string // non-empty: why the directive is invalid
}

// Run executes every analyzer over every package, applies suppression
// directives, and returns findings sorted by file, line, column and
// analyzer. Each analyzer sees one package at a time and reports only
// on that package.
func Run(analyzers []*Analyzer, pkgs []*Package) (*Result, error) {
	var found []Finding
	var dirs []*ignoreDirective
	for _, pkg := range pkgs {
		dirs = append(dirs, scanIgnores(pkg.Fset, pkg.Files)...)
		for _, an := range analyzers {
			pass := &Pass{
				Analyzer: an,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				findings: &found,
			}
			if err := an.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", an.Name, pkg.Path, err)
			}
		}
	}

	res := &Result{}
	for _, dir := range dirs {
		if dir.malformed != "" {
			res.BadIgnores = append(res.BadIgnores, lintFinding(dir, dir.malformed))
		}
	}
	for _, f := range found {
		if dir := matchIgnore(dirs, f); dir != nil {
			dir.used = true
			f.Suppressed = true
			f.Reason = dir.reason
			res.Suppressed = append(res.Suppressed, f)
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	res.BadIgnores = append(res.BadIgnores, staleDirectives(dirs, analyzers)...)
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	sortFindings(res.BadIgnores)
	return res, nil
}

// lintFinding reports a problem with the //lint:ignore directive dir.
func lintFinding(dir *ignoreDirective, msg string) Finding {
	return Finding{Analyzer: "lint", File: dir.pos.Filename, Line: dir.pos.Line, Col: dir.pos.Column, Message: msg}
}

// staleDirectives flags well-formed //lint:ignore directives that
// suppressed nothing. A suppression is a claim about a finding on its
// line; once the finding is gone the directive is dead weight that
// silently licenses a future regression, so it fails the run like a
// malformed one. A directive is only judged when every analyzer it
// names actually ran: a chargecause-only fixture run must not declare
// a spanpair directive stale.
func staleDirectives(dirs []*ignoreDirective, ran []*Analyzer) []Finding {
	byName := map[string]bool{}
	for _, an := range ran {
		byName[an.Name] = true
	}
	var out []Finding
	for _, d := range dirs {
		if d.malformed != "" || d.used {
			continue
		}
		all := true
		for _, name := range d.analyzers {
			if !byName[name] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		out = append(out, lintFinding(d, fmt.Sprintf("stale //lint:ignore platinum/%s: it suppresses no finding — remove it (reason was: %s)",
			strings.Join(d.analyzers, ",platinum/"), d.reason)))
	}
	return out
}

// scanIgnores extracts //lint:ignore directives from the files'
// comments. A directive written alone on a line applies to the next
// line; a trailing directive applies to its own line. The expected form
// is
//
//	//lint:ignore platinum/<name>[,platinum/<name>...] reason
//
// A directive with no platinum/ analyzer or no reason is recorded as
// malformed (and fails the run) rather than being ignored silently.
func scanIgnores(fset *token.FileSet, files []*ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				dir := &ignoreDirective{pos: pos}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					dir.malformed = "malformed //lint:ignore: want \"//lint:ignore platinum/<analyzer> reason\""
				} else {
					for _, name := range strings.Split(fields[0], ",") {
						short, ok := strings.CutPrefix(name, "platinum/")
						if !ok || short == "" {
							dir.malformed = fmt.Sprintf("//lint:ignore names %q: analyzers must be written platinum/<name>", name)
							break
						}
						if !registered(short) {
							dir.malformed = fmt.Sprintf("//lint:ignore names %q, which is not a registered analyzer (see platinum-vet -list)", name)
							break
						}
						dir.analyzers = append(dir.analyzers, short)
					}
					dir.reason = strings.Join(fields[1:], " ")
				}
				// Trailing comment → same line; otherwise next line.
				dir.line = pos.Line
				if trailing := lineHasCodeBefore(fset, f, c); !trailing {
					dir.line = pos.Line + 1
				}
				out = append(out, dir)
			}
		}
	}
	return out
}

// registered reports whether name is an analyzer in All(): a
// directive naming any other analyzer could never be judged stale and
// would stay in the tree forever.
func registered(name string) bool {
	for _, an := range All() {
		if an.Name == name {
			return true
		}
	}
	return false
}

// lineHasCodeBefore reports whether any node of f starts on the
// comment's line before the comment itself — i.e. the comment trails
// code rather than standing alone.
func lineHasCodeBefore(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	cpos := fset.Position(c.Pos())
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if _, isComment := n.(*ast.Comment); isComment {
			return false
		}
		if _, isGroup := n.(*ast.CommentGroup); isGroup {
			return false
		}
		p := fset.Position(n.Pos())
		if p.Line == cpos.Line && n.Pos() < c.Pos() {
			found = true
			return false
		}
		return true
	})
	return found
}

// matchIgnore returns the directive suppressing f, if any.
func matchIgnore(dirs []*ignoreDirective, f Finding) *ignoreDirective {
	for _, d := range dirs {
		if d.malformed != "" || d.pos.Filename != f.File || d.line != f.Line {
			continue
		}
		for _, name := range d.analyzers {
			if name == f.Analyzer {
				return d
			}
		}
	}
	return nil
}

// sortFindings orders findings by file, line, column, analyzer,
// message — a stable order independent of analyzer execution order.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// RelativeTo rewrites every finding's file path relative to dir where
// possible, for compact file:line output.
func (r *Result) RelativeTo(dir string) {
	rel := func(fs []Finding) {
		for i := range fs {
			if p, err := filepath.Rel(dir, fs[i].File); err == nil && !strings.HasPrefix(p, "..") {
				fs[i].File = p
			}
		}
	}
	rel(r.Findings)
	rel(r.Suppressed)
	rel(r.BadIgnores)
}
