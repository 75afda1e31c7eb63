package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFieldsAreRead fails on every named field of a struct type
// declared under internal/ that no non-test code reads, unless
// CONTRIBUTING.md's "Read by tests" section lists it with a reason. A
// read is any use of the field except three: the left side of an
// assignment (= or op=), an increment or decrement, and a
// composite-literal key. A field with a json tag counts as read, since
// encoding/json reads it. Every listed field must still be one that
// only tests read, so the list cannot go stale.
func TestFieldsAreRead(t *testing.T) {
	pkgs := loadModule(t)

	// Every named field of a declared struct type under internal/, by
	// its documented name (pkg.Type.Field).
	names := map[*types.Var]string{}
	where := map[*types.Var]token.Position{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Types.Path(), "platinum/internal/") {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fld := range st.Fields.List {
						if hasJSONTag(fld) {
							continue
						}
						for _, id := range fld.Names {
							if id.Name == "_" {
								continue
							}
							v := p.Info.Defs[id].(*types.Var)
							names[v] = p.Types.Name() + "." + ts.Name.Name + "." + id.Name
							where[v] = p.Fset.Position(id.Pos())
						}
					}
					return true
				})
				return false
			})
		}
	}

	read := map[*types.Var]bool{}
	for _, p := range pkgs {
		written := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							markSelected(written, lhs)
						}
					}
				case *ast.IncDecStmt:
					markSelected(written, n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[v.Origin()] = true
			}
		}
	}

	listed := contributingList(t, "Read by tests")
	var missing []string
	testOnly := map[string]bool{}
	for v, name := range names {
		if read[v] {
			continue
		}
		testOnly[name] = true
		if _, ok := listed[name]; !ok {
			missing = append(missing, where[v].String()+": "+name)
		}
	}
	slices.Sort(missing)
	for _, m := range missing {
		t.Errorf("%s is never read outside tests: delete it, or list it with a reason "+
			"under CONTRIBUTING.md's \"Read by tests\"", m)
	}
	for name, reason := range listed {
		switch {
		case !testOnly[name]:
			t.Errorf("CONTRIBUTING.md lists %s under \"Read by tests\", but it is not a field "+
				"under internal/ that only tests read", name)
		case strings.TrimSpace(reason) == "":
			t.Errorf("CONTRIBUTING.md lists %s under \"Read by tests\" without a reason", name)
		}
	}
	t.Logf("%d struct fields under internal/, %d listed as read by tests", len(names), len(listed))
}

// hasJSONTag reports whether fld carries a json struct tag.
func hasJSONTag(fld *ast.Field) bool {
	if fld.Tag == nil {
		return false
	}
	tag, err := strconv.Unquote(fld.Tag.Value)
	if err != nil {
		return false
	}
	_, ok := reflect.StructTag(tag).Lookup("json")
	return ok
}

// markSelected marks the selected field of e, the target of an
// assignment or increment, as written rather than read.
func markSelected(written map[*ast.Ident]bool, e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		written[sel.Sel] = true
	}
}
