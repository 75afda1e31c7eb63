// Command platinum-vet runs the project's static-analysis suite
// (internal/analysis) over the module tree: the determinism,
// cost-attribution, span-pairing, protocol-panic and typed-atomics
// analyzers that enforce at vet time invariants the test suite
// otherwise only catches at run time.
//
// Usage:
//
//	platinum-vet [flags] [packages]
//
// With no package arguments (or "./..."), the whole module is checked.
// Package arguments are directories relative to the module root
// ("./internal/sim", "internal/sim" and "platinum/internal/sim" are
// equivalent).
//
// Flags:
//
//	-json          emit the result as JSON (internal/analysis.Result)
//	-sarif         emit the result as SARIF 2.1.0 (for code scanning)
//	-list          print the registered analyzers (name and doc) and exit
//	-srcroot dir   load packages from a GOPATH-style source tree rooted
//	               at dir instead of the enclosing module (used by the
//	               fixture tests and the CI negative-fixture check)
//
// Each analyzer is single-pass: it reads one type-checked package and
// reports only on that package, so findings come only from the
// packages named on the command line.
//
// Exit status: 0 when the tree is clean, 1 when there are findings or
// malformed suppression directives, 2 on usage or load errors.
//
// Findings can be suppressed — visibly, never silently — with a
// trailing or preceding comment:
//
//	//lint:ignore platinum/<analyzer> reason
//
// Suppressed findings are counted and listed in both text and JSON
// output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"platinum/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("platinum-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	srcroot := fs.String("srcroot", "", "load packages from this GOPATH-style source root instead of the module")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, an := range analyzers {
			fmt.Fprintf(stdout, "%s\t%s\n", an.Name, an.Doc)
		}
		return 0
	}

	loader, paths, code := prepare(fs.Args(), *srcroot, stderr)
	if code != 0 {
		return code
	}
	pkgs, err := loader.Load(paths...)
	if err != nil {
		fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
		return 2
	}
	res, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
		return 2
	}
	if wd, err := os.Getwd(); err == nil {
		res.RelativeTo(wd)
	}

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
			return 2
		}
	case *sarifOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.ToSARIF(res, analyzers)); err != nil {
			fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
			return 2
		}
	default:
		printText(stdout, res, len(pkgs))
	}
	if res.Failed() {
		return 1
	}
	return 0
}

// prepare resolves the loader and the list of import paths to check
// from the CLI arguments.
func prepare(args []string, srcroot string, stderr io.Writer) (*analysis.Loader, []string, int) {
	if srcroot != "" {
		loader := analysis.NewLoader(map[string]string{"": srcroot})
		paths := args
		if len(paths) == 0 {
			all, err := loader.DiscoverAll()
			if err != nil {
				fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
				return nil, nil, 2
			}
			paths = all
		}
		return loader, paths, 0
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
		return nil, nil, 2
	}
	loader, err := analysis.NewModuleLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
		return nil, nil, 2
	}
	all := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "..." {
			all = true
		}
	}
	if all {
		paths, err := loader.DiscoverAll()
		if err != nil {
			fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
			return nil, nil, 2
		}
		return loader, paths, 0
	}
	modPath, err := modulePathOf(root)
	if err != nil {
		fmt.Fprintf(stderr, "platinum-vet: %v\n", err)
		return nil, nil, 2
	}
	var paths []string
	for _, a := range args {
		paths = append(paths, resolveArg(modPath, a))
	}
	return loader, paths, 0
}

// resolveArg maps a CLI package argument to an import path.
func resolveArg(modPath, arg string) string {
	a := strings.TrimPrefix(arg, "./")
	a = strings.TrimSuffix(a, "/")
	if a == "" || a == "." {
		return modPath
	}
	if a == modPath || strings.HasPrefix(a, modPath+"/") {
		return a
	}
	return modPath + "/" + a
}

// moduleRoot finds the nearest enclosing directory containing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// modulePathOf reads the module path from root's go.mod.
func modulePathOf(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in go.mod")
}

// printText writes the human-readable report: one file:line:col line
// per finding, then the suppression summary.
func printText(w io.Writer, res *analysis.Result, npkgs int) {
	for _, f := range res.BadIgnores {
		fmt.Fprintf(w, "%s: [%s] %s\n", f.Pos(), f.Analyzer, f.Message)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(w, "%s: [platinum/%s] %s\n", f.Pos(), f.Analyzer, f.Message)
	}
	for _, f := range res.Suppressed {
		fmt.Fprintf(w, "%s: suppressed [platinum/%s] (%s)\n", f.Pos(), f.Analyzer, f.Reason)
	}
	fmt.Fprintf(w, "platinum-vet: %d package(s), %d finding(s), %d suppressed\n",
		npkgs, len(res.Findings)+len(res.BadIgnores), len(res.Suppressed))
}
