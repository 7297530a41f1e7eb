// Package lint holds the repo-invariant static analyzers behind
// `tlbcheck -lint`. They enforce, with the standard library's go/ast
// alone, the three invariants the simulator's determinism and cost model
// depend on:
//
//   - determinism: no wall-clock (time) or global-PRNG (math/rand) use in
//     non-test code — simulated time comes from sim.Engine and randomness
//     from the seeded internal/sim generator, so every run is replayable.
//   - costliteral: no raw integer literals passed to Delay in the
//     machine-model packages — every cycle cost must be routed through
//     internal/mach/costs.go so experiments stay calibratable.
//   - maporder: no map iteration that charges simulated time in its body —
//     Go map order is random per process, so Delay inside a map range
//     makes event interleaving (and therefore results) irreproducible.
//
// Two further analyzers guard the happens-before race model
// (internal/race):
//
//   - observerpurity: hook/observer/probe function literals must not
//     mutate the observed state or package-level variables, so checked
//     runs stay cycle-identical to unchecked ones.
//   - sharedaccess: fields instrumented for the race detector may only be
//     touched through their reporting accessors.
//
// One analyzer guards the parallel experiment scheduler (internal/sched):
//
//   - parallelsafety: simulated packages must not declare mutable
//     package-level state — concurrently booted worlds would share it,
//     breaking both determinism and `go test -race`. Only error sentinels
//     and the blank identifier are exempt.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	// File is the path as given to the checker (slash-separated).
	File string
	// Line is the 1-based source line.
	Line int
	// Analyzer names the rule that fired.
	Analyzer string
	// Msg explains the violation.
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Msg)
}

// bannedImports are the determinism-breaking packages.
var bannedImports = map[string]string{
	"time":         "wall-clock time breaks replayability; simulated time comes from sim.Engine.Now",
	"math/rand":    "the global PRNG breaks replayability; use the seeded generator in internal/sim",
	"math/rand/v2": "the global PRNG breaks replayability; use the seeded generator in internal/sim",
}

// InDeterminismScope reports whether rel's imports are subject to the
// determinism ban. The static-analysis toolchain itself is exempt — the
// analyzers time their own wall-clock for the CI budget attribution and
// never run inside a simulation — but its testdata fixtures stay in
// scope, because fixtures exist to prove the ban fires.
func InDeterminismScope(rel string) bool {
	rel = filepath.ToSlash(rel)
	if !strings.HasPrefix(rel, "internal/sanitizer/") {
		return true
	}
	return strings.Contains(rel, "/testdata/")
}

// costScope lists the machine-model directories where every cycle cost
// must come from the cost model, never a literal.
var costScope = []string{
	"internal/apic/", "internal/cache/", "internal/core/", "internal/daemons/",
	"internal/kernel/", "internal/mm/", "internal/smp/", "internal/syscalls/",
	"internal/tlb/",
}

func inCostScope(rel string) bool {
	rel = filepath.ToSlash(rel)
	for _, p := range costScope {
		if strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

// CheckSource parses one file and runs every applicable analyzer. rel is
// the module-relative path, which decides analyzer scope.
func CheckSource(rel string, src []byte) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var out []Finding
	if InDeterminismScope(rel) {
		out = append(out, checkDeterminism(fset, rel, f)...)
	}
	out = append(out, checkObserverPurity(fset, rel, f)...)
	out = append(out, checkSharedAccess(fset, rel, f)...)
	if inCostScope(rel) {
		out = append(out, checkCostLiteral(fset, rel, f)...)
		out = append(out, checkMapOrder(fset, rel, f)...)
	}
	if inParallelScope(rel) {
		out = append(out, checkParallelSafety(fset, rel, f)...)
	}
	return out, nil
}

func checkDeterminism(fset *token.FileSet, rel string, f *ast.File) []Finding {
	var out []Finding
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if why, ok := bannedImports[path]; ok {
			out = append(out, Finding{
				File: rel, Line: fset.Position(imp.Pos()).Line,
				Analyzer: "determinism",
				Msg:      fmt.Sprintf("import of %q: %s", path, why),
			})
		}
	}
	return out
}

func checkCostLiteral(fset *token.FileSet, rel string, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Delay" || len(call.Args) != 1 {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.INT {
			out = append(out, Finding{
				File: rel, Line: fset.Position(lit.Pos()).Line,
				Analyzer: "costliteral",
				Msg:      fmt.Sprintf("raw cycle cost %s passed to Delay; route it through the cost model (internal/mach/costs.go)", lit.Value),
			})
		}
		return true
	})
	return out
}

// checkMapOrder flags `for ... range <map>` loops whose body calls Delay.
// Map identification is syntactic: any name declared, assigned or typed as
// a map anywhere in the file (including struct fields) counts.
func checkMapOrder(fset *token.FileSet, rel string, f *ast.File) []Finding {
	mapNames := collectMapNames(f)
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		name, isMap := rangedName(rng.X, mapNames)
		if !isMap {
			return true
		}
		delayLine := 0
		ast.Inspect(rng.Body, func(b ast.Node) bool {
			if delayLine != 0 {
				return false
			}
			if call, ok := b.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Delay" {
					delayLine = fset.Position(call.Pos()).Line
					return false
				}
			}
			return true
		})
		if delayLine != 0 {
			out = append(out, Finding{
				File: rel, Line: fset.Position(rng.Pos()).Line,
				Analyzer: "maporder",
				Msg:      fmt.Sprintf("Delay (line %d) inside iteration over map %q: map order is random, so charged time becomes irreproducible — iterate a sorted copy", delayLine, name),
			})
		}
		return true
	})
	return out
}

// collectMapNames gathers every identifier the file declares with a map
// type: vars, struct fields, and := / = assignments from map literals or
// make(map...).
func collectMapNames(f *ast.File) map[string]bool {
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.Field:
			if _, ok := d.Type.(*ast.MapType); ok {
				for _, id := range d.Names {
					names[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if _, ok := d.Type.(*ast.MapType); ok {
				for _, id := range d.Names {
					names[id.Name] = true
				}
			}
			for i, v := range d.Values {
				if i < len(d.Names) && isMapExpr(v) {
					names[d.Names[i].Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range d.Rhs {
				if i >= len(d.Lhs) || !isMapExpr(rhs) {
					continue
				}
				switch l := d.Lhs[i].(type) {
				case *ast.Ident:
					names[l.Name] = true
				case *ast.SelectorExpr:
					names[l.Sel.Name] = true
				}
			}
		}
		return true
	})
	return names
}

func isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		_, ok := v.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) >= 1 {
			_, ok := v.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// rangedName resolves the ranged expression to a declared-map name.
func rangedName(x ast.Expr, mapNames map[string]bool) (string, bool) {
	switch v := x.(type) {
	case *ast.Ident:
		return v.Name, mapNames[v.Name]
	case *ast.SelectorExpr:
		return v.Sel.Name, mapNames[v.Sel.Name]
	}
	return "", false
}

// TreeStats records what a CheckTree pass actually covered, so callers
// (and the coverage test) can verify the walk descended everywhere it
// should instead of trusting the pattern expansion blindly.
type TreeStats struct {
	// Files lists every scanned file, module-relative, in scan order.
	Files []string
}

// CheckTree walks every non-test .go file under the given patterns
// (directories, or `dir/...` for recursion; `./...` covers the module)
// and returns all findings sorted by file and line.
func CheckTree(patterns ...string) ([]Finding, error) {
	fs, _, err := CheckTreeStats(patterns...)
	return fs, err
}

// CheckTreeStats is CheckTree plus coverage accounting.
func CheckTreeStats(patterns ...string) ([]Finding, *TreeStats, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []Finding
	stats := &TreeStats{}
	seen := make(map[string]bool)
	modRoot := findModuleRoot()
	for _, pat := range patterns {
		root, recursive := pat, false
		if strings.HasSuffix(pat, "/...") {
			root, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if root == "" || root == "." || root == "./" {
			root = "."
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if path != root && !recursive {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || seen[path] {
				return nil
			}
			seen[path] = true
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel := moduleRel(modRoot, path)
			stats.Files = append(stats.Files, rel)
			fs, err := CheckSource(rel, src)
			if err != nil {
				return err
			}
			out = append(out, fs...)
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out, stats, nil
}

// findModuleRoot ascends from the working directory to the nearest go.mod,
// so analyzer scoping works no matter which directory the checker runs in.
func findModuleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// moduleRel renders path relative to the module root (falling back to the
// cleaned path when outside any module).
func moduleRel(modRoot, path string) string {
	if modRoot != "" {
		if abs, err := filepath.Abs(path); err == nil {
			if rel, err := filepath.Rel(modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel)
			}
		}
	}
	return filepath.ToSlash(strings.TrimPrefix(path, "./"))
}
