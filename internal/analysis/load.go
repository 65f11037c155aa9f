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
	"sync"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader discovers, parses, and type-checks every package in a module
// without go/packages: module-internal imports are resolved by walking
// the module tree, everything else through the stdlib source importer.
// A Loader is not safe for concurrent use: its package cache is
// unguarded, and every caller loads from one goroutine.
//
// The stdlib source importer and the file set are process-wide, shared
// by every Loader: the standard library's type information is the same
// for every module, and type-checking it from source is most of what a
// load costs, so a process that builds many Loaders (the linter's tests
// build one per case) checks each stdlib package once. A mutex guards
// the shared importer, since Loaders in different goroutines may import
// at once; token.FileSet is safe for concurrent use on its own.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod
	// IncludeTests also parses _test.go files into their package (external
	// "_test" packages are not supported). The lint driver leaves this
	// off: tests are exempt from the simulation invariants.
	IncludeTests bool

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
}

// The process-wide file set and stdlib importer.
var (
	sharedFset  = token.NewFileSet()
	stdMu       sync.Mutex
	stdImporter = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
)

// NewLoader prepares a loader for the module rooted at root, reading the
// module path from go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	l := &Loader{Root: root, Module: module}
	l.init()
	return l, nil
}

func (l *Loader) init() {
	l.pkgs = map[string]*Package{}
	l.loading = map[string]bool{}
}

// LoadAll walks the module tree and loads every package containing Go
// files, skipping testdata, vendor, hidden directories, and output dirs.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := l.walkDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.load(l.dirImportPath(dir), dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// walkDirs returns every package directory under the module root in
// sorted order.
func (l *Loader) walkDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || name == "vendor" || name == "out" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func (l *Loader) dirImportPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadDir loads a single directory as the package with the given import
// path, without walking a module. Used by analyzer golden tests to load
// testdata packages; module-internal imports are unavailable.
//
//lint:ignore deadcode the analyzer golden tests load their testdata packages with it
func LoadDir(dir, importPath string, includeTests bool) (*Package, error) {
	l := &Loader{Root: dir, Module: importPath, IncludeTests: includeTests}
	l.init()
	return l.load(importPath, dir)
}

// parseDir parses one package directory's source files (minus _test.go
// unless IncludeTests), keeping only the dominant non-test package.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// Reject mixed packages (keep the dominant non-test package; external
	// _test packages are dropped rather than type-checked).
	base := files[0].Name.Name
	for _, f := range files {
		if strings.HasSuffix(base, "_test") && !strings.HasSuffix(f.Name.Name, "_test") {
			base = f.Name.Name
		}
	}
	kept := files[:0]
	for _, f := range files {
		if f.Name.Name == base {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// load parses and type-checks one package directory.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(path, srcDir string) (*types.Package, error) {
			return l.importPkg(path)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, sharedFset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v (and %d more)",
			importPath, typeErrs[0], len(typeErrs)-1)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       sharedFset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPkg resolves one import: module-internal paths load recursively
// from source, everything else goes through the stdlib source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.load(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.ImportFrom(path, l.Root, 0)
}

// importerFunc adapts a function to types.ImporterFrom.
type importerFunc func(path, dir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) {
	return f(path, "")
}

func (f importerFunc) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}
