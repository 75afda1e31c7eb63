package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked, non-test package.
type Package struct {
	Path  string // import path
	Dir   string // source directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages from source. Local packages
// (those under one of the loader's roots) are type-checked from their
// .go files, excluding _test.go files; everything else — in practice
// the standard library — is resolved through the go/importer "source"
// importer, so loading needs neither export data nor network access.
type Loader struct {
	Fset *token.FileSet

	// roots maps an import-path prefix to the directory holding its
	// source tree: {"platinum": "/repo"} for the module itself,
	// {"": "testdata/src"} for a GOPATH-style fixture tree where the
	// import path is the directory path relative to the root.
	roots map[string]string

	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles in local packages.
	loading map[string]bool
}

// NewLoader returns a loader over the given root set.
func NewLoader(roots map[string]string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		roots:   roots,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// NewModuleLoader returns a loader rooted at the Go module in dir,
// reading the module path from go.mod.
func NewModuleLoader(dir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return NewLoader(map[string]string{modPath: dir}), nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// dirFor resolves an import path to a local source directory, or
// ok=false when the path is outside every root (i.e. stdlib).
func (l *Loader) dirFor(importPath string) (string, bool) {
	for prefix, dir := range l.roots {
		if prefix == "" {
			d := filepath.Join(dir, filepath.FromSlash(importPath))
			if hasGoFiles(d) {
				return d, true
			}
			continue
		}
		if importPath == prefix {
			return dir, true
		}
		if rest, ok := strings.CutPrefix(importPath, prefix+"/"); ok {
			return filepath.Join(dir, filepath.FromSlash(rest)), true
		}
	}
	return "", false
}

// hasGoFiles reports whether dir directly contains non-test .go files.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// DiscoverAll walks every root and returns the import paths of all
// local packages (directories directly containing non-test .go files),
// sorted. Directories named testdata, hidden directories, and .git are
// skipped.
func (l *Loader) DiscoverAll() ([]string, error) {
	var paths []string
	for prefix, root := range l.roots {
		err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() {
				base := filepath.Base(p)
				if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			name := filepath.Base(p)
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			ip := prefix
			if rel != "." {
				if ip != "" {
					ip += "/"
				}
				ip += filepath.ToSlash(rel)
			}
			paths = append(paths, ip)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	// Deduplicate (one entry per .go file was appended).
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || paths[i-1] != p {
			out = append(out, p)
		}
	}
	return out, nil
}

// Load parses and type-checks the named local packages (and,
// transitively, every local package they import). It returns the named
// packages in argument order.
func (l *Loader) Load(importPaths ...string) ([]*Package, error) {
	out := make([]*Package, 0, len(importPaths))
	for _, ip := range importPaths {
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// load type-checks one local package, loading local imports first.
func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	dir, ok := l.dirFor(importPath)
	if !ok {
		return nil, fmt.Errorf("package %s is outside every loader root", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var imports []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, im := range f.Imports {
			imports = append(imports, strings.Trim(im.Path.Value, `"`))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	// Load local dependencies first so the importer below finds them
	// already checked (and so cycles are reported as such).
	sort.Strings(imports)
	for i, dep := range imports {
		if i > 0 && imports[i-1] == dep {
			continue
		}
		if _, local := l.dirFor(dep); local {
			if _, err := l.load(dep); err != nil {
				return nil, err
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// importPkg resolves an import during type checking: local packages
// from the loader's own cache (loaded on demand), everything else via
// the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if _, local := l.dirFor(path); local {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
