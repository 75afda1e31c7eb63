package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"platinum/internal/analysis"
)

// The module is parsed and type-checked once, for TestModuleClean,
// TestExportsHaveCallers and TestFieldsAreRead.
var (
	moduleOnce sync.Once
	modulePkgs []*analysis.Package
	moduleErr  error
)

// loadModule returns every non-test package of the module.
func loadModule(t *testing.T) []*analysis.Package {
	t.Helper()
	moduleOnce.Do(func() {
		loader, err := analysis.NewModuleLoader(moduleRoot)
		if err != nil {
			moduleErr = err
			return
		}
		paths, err := loader.DiscoverAll()
		if err != nil {
			moduleErr = err
			return
		}
		modulePkgs, moduleErr = loader.Load(paths...)
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

// stdlibCallers names the standard-library interfaces whose methods
// the standard library calls on the module's values: fmt prints a
// Stringer or an error, sort drives sort.Interface, and io.Copy uses a
// WriterTo. A method implementing one counts as called.
var stdlibCallers = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"io", "WriterTo"},
}

// TestExportsHaveCallers fails on every exported function or method
// declared under internal/ that no non-test code refers to, unless
// CONTRIBUTING.md's "Exported for tests" section lists it with a
// reason. A reference from inside the function's own body does not
// count. A method also counts as called when it implements a method of
// an interface that non-test code calls, or of one of stdlibCallers.
// Every listed name must still be such an export, so the list cannot go
// stale.
func TestExportsHaveCallers(t *testing.T) {
	pkgs := loadModule(t)

	// Every exported function and method under internal/, by its
	// documented name (pkg.Func or pkg.Type.Method).
	decls := map[*types.Func]*ast.FuncDecl{}
	names := map[*types.Func]string{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Types.Path(), "platinum/internal/") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				decls[fn] = fd
				names[fn] = exportName(fn)
			}
		}
	}

	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := decls[fn]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
				continue // recursion
			}
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls = append(ifaceCalls, fn)
			}
		}
	}
	for _, c := range stdlibCallers {
		iface := stdlibInterface(pkgs, c[0], c[1])
		if iface == nil {
			t.Fatalf("interface %s.%s not found in the module's imports", c[0], c[1])
		}
		for i := range iface.NumMethods() {
			ifaceCalls = append(ifaceCalls, iface.Method(i))
		}
	}
	implementsCalled := func(fn *types.Func) bool {
		T := recvType(fn)
		if T == nil {
			return false
		}
		for _, m := range ifaceCalls {
			if m.Name() != fn.Name() {
				continue
			}
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface) {
				return true
			}
		}
		return false
	}

	listed := contributingList(t, "Exported for tests")
	var missing []string
	testOnly := map[string]bool{}
	for fn, name := range names {
		if used[fn] || implementsCalled(fn) {
			continue
		}
		testOnly[name] = true
		if _, ok := listed[name]; !ok {
			missing = append(missing, name)
		}
	}
	slices.Sort(missing)
	for _, name := range missing {
		t.Errorf("%s is exported but only tests call it: delete it, move it to an export_test.go, "+
			"or list it with a reason under CONTRIBUTING.md's \"Exported for tests\"", name)
	}
	for name, reason := range listed {
		switch {
		case !testOnly[name]:
			t.Errorf("CONTRIBUTING.md lists %s under \"Exported for tests\", but it is not an exported "+
				"function under internal/ that only tests call", name)
		case strings.TrimSpace(reason) == "":
			t.Errorf("CONTRIBUTING.md lists %s under \"Exported for tests\" without a reason", name)
		}
	}
	t.Logf("%d exported functions and methods under internal/, %d listed as exported for tests", len(names), len(listed))
}

// exportName renders fn as CONTRIBUTING.md names it: pkg.Func, or
// pkg.Type.Method for a method.
func exportName(fn *types.Func) string {
	T := recvType(fn)
	if T == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + T.(*types.Named).Obj().Name() + "." + fn.Name()
}

// recvType returns the type fn is a method of, with any pointer
// removed, or nil when fn is a function.
func recvType(fn *types.Func) types.Type {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	if ptr, ok := recv.Type().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return recv.Type()
}

// stdlibInterface looks up the interface path.name among the packages
// the module imports; an empty path is the universe scope.
func stdlibInterface(pkgs []*analysis.Package, path, name string) *types.Interface {
	if path == "" {
		return types.Universe.Lookup(name).Type().Underlying().(*types.Interface)
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == path {
				return imp.Scope().Lookup(name).Type().Underlying().(*types.Interface)
			}
		}
	}
	return nil
}

// contributingList reads the bullets of CONTRIBUTING.md's section
// with the given heading, "- `name`: reason", mapping each name to its
// reason.
func contributingList(t *testing.T, heading string) map[string]string {
	t.Helper()
	doc, err := os.ReadFile(moduleRoot + "/CONTRIBUTING.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf(`CONTRIBUTING.md has no "## %s" section`, heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	listed := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^- `([A-Za-z0-9_.]+)`:(.*)$").FindAllStringSubmatch(section, -1) {
		if _, dup := listed[m[1]]; dup {
			t.Errorf("CONTRIBUTING.md lists %s twice under %q", m[1], heading)
		}
		listed[m[1]] = m[2]
	}
	return listed
}
