package typedlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModulePath is the import path of the module this checker analyzes. The
// loader is module-aware so it stays stdlib-only: the source importer that
// ships with go/importer resolves GOROOT packages but knows nothing about
// modules, so imports under this prefix are typechecked from the local
// tree instead.
const ModulePath = "shootdown"

// Package is one typechecked package of the module.
type Package struct {
	// Path is the import path ("shootdown/internal/mm").
	Path string
	// Dir is the module-relative directory ("internal/mm", "." for root).
	Dir string
	// Files holds the parsed non-test sources, ordered by file name.
	Files []*ast.File
	// FileNames holds the module-relative path of each Files entry.
	FileNames []string
	// Types is the typechecked package object.
	Types *types.Package
	// Info carries the resolved type information for every file.
	Info *types.Info
}

// Module is the fully loaded and typechecked target of the typed analyzers.
type Module struct {
	// Root is the absolute module root directory.
	Root string
	// Fset positions every parsed file (module and GOROOT sources alike).
	Fset *token.FileSet
	// Pkgs lists the module packages sorted by import path.
	Pkgs []*Package

	byPath map[string]*Package
	std    types.Importer
}

// Lookup returns the loaded package with the given import path, or nil.
func (m *Module) Lookup(path string) *Package { return m.byPath[path] }

// newInfo returns a types.Info with every map the analyzers need.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LoadModule discovers, parses and typechecks every non-test package under
// the module root (ascending from the working directory to the nearest
// go.mod). It is the front door for the typed analyzers.
func LoadModule() (*Module, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	return LoadModuleAt(root)
}

// LoadModuleAt loads the module rooted at dir.
func LoadModuleAt(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
	}
	// The "source" importer typechecks GOROOT dependencies from source, so
	// no compiled export data is needed (the toolchain no longer ships it).
	m.std = importer.ForCompiler(m.Fset, "source", nil)

	dirs, err := m.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := m.load(m.importPathOf(d)); err != nil {
			return nil, err
		}
	}
	for _, p := range m.byPath {
		m.Pkgs = append(m.Pkgs, p)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// packageDirs walks the tree for directories holding non-test .go files.
func (m *Module) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != m.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

// importPathOf maps an absolute directory to its module import path.
func (m *Module) importPathOf(dir string) string {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || rel == "." {
		return ModulePath
	}
	return ModulePath + "/" + filepath.ToSlash(rel)
}

// dirOf maps a module import path to its absolute directory.
func (m *Module) dirOf(path string) string {
	if path == ModulePath {
		return m.Root
	}
	return filepath.Join(m.Root, filepath.FromSlash(strings.TrimPrefix(path, ModulePath+"/")))
}

// Import implements types.Importer: module-internal paths load from the
// local tree; everything else delegates to the GOROOT source importer.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == ModulePath || strings.HasPrefix(path, ModulePath+"/") {
		p, err := m.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return m.std.Import(path)
}

// load parses and typechecks one module package (memoized).
func (m *Module) load(path string) (*Package, error) {
	if p, ok := m.byPath[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("typedlint: import cycle through %s", path)
		}
		return p, nil
	}
	m.byPath[path] = nil // cycle guard
	dir := m.dirOf(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		rel, _ := filepath.Rel(m.Root, full)
		names = append(names, filepath.ToSlash(rel))
	}
	if len(files) == 0 {
		delete(m.byPath, path)
		return nil, fmt.Errorf("typedlint: no Go files in %s", dir)
	}
	p := &Package{Path: path, Files: files, FileNames: names, Info: newInfo()}
	if p.Dir, err = filepath.Rel(m.Root, dir); err != nil {
		p.Dir = "."
	}
	p.Dir = filepath.ToSlash(p.Dir)
	cfg := types.Config{Importer: m}
	p.Types, err = cfg.Check(path, m.Fset, files, p.Info)
	if err != nil {
		return nil, fmt.Errorf("typedlint: typecheck %s: %v", path, err)
	}
	m.byPath[path] = p
	return p, nil
}

// LoadFixture typechecks one extra file (a testdata fixture) against the
// already-loaded module, returning it as a synthetic package. The fixture
// may import any module or GOROOT package.
func (m *Module) LoadFixture(file string) (*Package, error) {
	return m.LoadFixtureIn(file, "")
}

// LoadFixtureIn is LoadFixture for a fixture that must see a module
// package's unexported identifiers: the fixture is typechecked together
// with the files of the package at pkgPath, as a second copy of that
// package. An empty pkgPath loads the fixture as a package of its own.
func (m *Module) LoadFixtureIn(file, pkgPath string) (*Package, error) {
	full, err := filepath.Abs(file)
	if err != nil {
		return nil, err
	}
	f, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, full)
	if err != nil {
		rel = filepath.Base(full)
	}
	p := &Package{
		Path:      ModulePath + "/fixture/" + f.Name.Name,
		Dir:       filepath.ToSlash(filepath.Dir(rel)),
		Files:     []*ast.File{f},
		FileNames: []string{filepath.ToSlash(rel)},
		Info:      newInfo(),
	}
	if pkgPath != "" {
		host := m.Lookup(pkgPath)
		if host == nil {
			return nil, fmt.Errorf("typedlint: fixture host %s is not a module package", pkgPath)
		}
		p.Path, p.Dir = host.Path, host.Dir
		p.Files = append(append([]*ast.File{}, host.Files...), f)
		p.FileNames = append(append([]string{}, host.FileNames...), filepath.ToSlash(rel))
	}
	cfg := types.Config{Importer: m}
	if p.Types, err = cfg.Check(p.Path, m.Fset, p.Files, p.Info); err != nil {
		return nil, fmt.Errorf("typedlint: typecheck fixture %s: %v", file, err)
	}
	return p, nil
}

// findModuleRoot ascends from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
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
			return "", fmt.Errorf("typedlint: no go.mod above %s", dir)
		}
		dir = parent
	}
}
