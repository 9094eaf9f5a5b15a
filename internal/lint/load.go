package lint

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

// Package is one parsed and typechecked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File // non-test files, with comments
	Types *types.Package
	Info  *types.Info
}

// Loader parses and typechecks packages of a single module without any
// third-party machinery: module-local imports resolve by the trivial path
// mapping (modPath/x/y → modDir/x/y) and are typechecked from source, and
// everything else — the standard library — is read from compiler export
// data through go/importer's "gc" importer, which runs `go list -export`
// with the toolchain's own go command ($GOROOT/bin/go), so that toolchain
// must be installed, as it is for every go run or go test. Offline by
// construction; results are cached per import path.
type Loader struct {
	ModPath string
	ModDir  string

	fset *token.FileSet
	std  types.ImporterFrom
	info *types.Info
	pkgs map[string]*Package
}

// NewLoader creates a Loader for the module containing dir: go.mod is found
// in dir or the nearest ancestor, so callers can sit anywhere in the module
// (tests run with the package directory as their working directory).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return nil, fmt.Errorf("lint: no go.mod in %s or any parent", dir)
		}
		abs = parent
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModPath: modPath,
		ModDir:  abs,
		fset:    fset,
		std:     importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom),
		// One types.Info, with every map analyzers need, shared by all
		// packages this loader typechecks.
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
		pkgs: make(map[string]*Package),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", file)
}

// Load parses and typechecks the package at importPath.
func (l *Loader) Load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	rel, ok := l.moduleRelative(importPath)
	if !ok {
		return nil, fmt.Errorf("lint: %s is outside module %s", importPath, l.ModPath)
	}
	return l.loadDir(filepath.Join(l.ModDir, rel), importPath)
}

// LoadDir parses and typechecks the package in dir, giving it the stated
// import path. Used by linttest to check fixtures under any identity (e.g. a
// core-package path to exercise simdeterminism).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	return l.loadDir(dir, importPath)
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  l.info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// moduleRelative maps an import path to a module-relative directory.
func (l *Loader) moduleRelative(importPath string) (string, bool) {
	if importPath == l.ModPath {
		return ".", true
	}
	rel, ok := strings.CutPrefix(importPath, l.ModPath+"/")
	return rel, ok
}

// loaderImporter resolves imports during typechecking: module-local packages
// recurse through the Loader, the rest goes to the export-data importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.moduleRelative(path); ok {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Expand resolves go-style package patterns ("./...", "./internal/simsvc",
// "internal/lint/...") into a sorted list of import paths, mirroring the go
// tool's walking rules: testdata, hidden, and underscore-prefixed directories
// are skipped, and only directories containing non-test Go files count.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var paths []string
	add := func(dir string) error {
		has, err := hasGoFiles(dir)
		if err != nil || !has {
			return err
		}
		rel, err := filepath.Rel(l.ModDir, dir)
		if err != nil {
			return err
		}
		ip := l.ModPath
		if rel != "." {
			ip = l.ModPath + "/" + filepath.ToSlash(rel)
		}
		if !seen[ip] {
			seen[ip] = true
			paths = append(paths, ip)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.ModDir, root)
		}
		if !recursive {
			if err := add(root); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return add(path)
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
