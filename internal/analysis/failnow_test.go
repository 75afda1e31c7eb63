package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// bodyParams are the parameter types that mark a function as one that
// runs on a simulated thread's worker goroutine, by package path: a
// thread body takes a *sim.Thread or *kernel.Thread, an application an
// apps.Env (which the root package re-exports as platinum.Env).
var bodyParams = map[string]struct {
	name    string
	pointer bool
}{
	"platinum/internal/sim":    {"Thread", true},
	"platinum/internal/kernel": {"Thread", true},
	"platinum/internal/apps":   {"Env", false},
	"platinum":                 {"Env", false},
}

// failNow names the testing methods that end the test with
// runtime.Goexit, which testing allows only on the test's own
// goroutine.
var failNow = map[string]bool{
	"Fatal": true, "Fatalf": true, "FailNow": true,
	"Skip": true, "Skipf": true, "SkipNow": true,
}

// TestNoFailNowInThreadBodies fails, with file:line, on every call to
// Fatal, Fatalf, FailNow, Skip, Skipf or SkipNow inside a function of a
// _test.go file in the module that takes a *sim.Thread, a
// *kernel.Thread or an apps.Env, literal or declared (a fixture helper
// such as fixture.touch), nested function literals included. Such a
// function runs on a worker goroutine, where testing forbids FailNow;
// the engine passing the Goexit on to Run's caller is what ends the
// test. A body reports a failure by panicking, so Run returns a
// ThreadPanicError the test goroutine reports, or by recording it for
// the test goroutine to fail on after Run. The check is syntactic: it
// resolves a parameter type through the file's imports and package,
// and does not follow calls into helpers that take no such parameter.
func TestNoFailNowInThreadBodies(t *testing.T) {
	files := 0
	err := filepath.WalkDir(moduleRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(moduleRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files++
		for _, sel := range failNowInBodies(f, path.Join("platinum", filepath.ToSlash(rel))) {
			pos := fset.Position(sel.Pos())
			t.Errorf("%s:%d: a function run on a simulated thread calls %s; panic with the message instead",
				filepath.ToSlash(filepath.Join(rel, filepath.Base(p))), pos.Line, sel.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no _test.go files")
	}
}

// failNowInBodies returns the method name of every FailNow-family call
// in f's thread and application bodies. dir is the import path of f's
// directory, which unqualified parameter types resolve to unless f
// belongs to the external _test package.
func failNowInBodies(f *ast.File, dir string) []*ast.Ident {
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	own := ""
	if !strings.HasSuffix(f.Name.Name, "_test") {
		own = dir
	}
	takesBody := func(ft *ast.FuncType) bool {
		for _, fld := range ft.Params.List {
			typ, pointer := fld.Type, false
			if star, ok := typ.(*ast.StarExpr); ok {
				typ, pointer = star.X, true
			}
			pkg, name := own, ""
			switch x := typ.(type) {
			case *ast.Ident:
				name = x.Name
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					pkg, name = imports[id.Name], x.Sel.Name
				}
			}
			if want, ok := bodyParams[pkg]; ok && want.name == name && want.pointer == pointer {
				return true
			}
		}
		return false
	}
	var found []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		var ft *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncLit:
			ft, body = fn.Type, fn.Body
		case *ast.FuncDecl:
			ft, body = fn.Type, fn.Body
		default:
			return true
		}
		if body == nil || !takesBody(ft) {
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && failNow[sel.Sel.Name] {
					found = append(found, sel.Sel)
				}
			}
			return true
		})
		return false
	})
	return found
}
