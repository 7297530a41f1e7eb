// Package typedlint holds the type-checked analysis tier behind
// cmd/tlbvet. It typechecks the whole module (stdlib only: go/types plus
// the GOROOT source importer) and runs one analyzer per static property:
//
//   - determinism: banned imports (time, math/rand) by import path, so
//     aliased, dot and blank imports cannot slip through.
//   - costliteral: no constant cycle cost reaches (*sim.Proc).Delay in
//     the machine-model packages — literals, named constants and thin
//     Delay wrappers alike, because sinks are found by callee identity
//     and arguments by constant value.
//   - observerpurity: hook/observer/probe literals must not write through
//     their parameters or to package-level variables, nor mutate
//     simulated state through method calls or aliases (module-wide
//     mutating-method summaries).
//   - parallelsafety: simulated packages declare no mutable
//     package-level state, so concurrently booted worlds share nothing.
//
// The package also owns the module loader, the analyzer scopes (cost,
// determinism and simulated-package) and the shared typed helpers
// (FuncDecl enumeration, callee resolution) that the deeper
// internal/sanitizer/ssa tier builds on. The CFG/SSA dataflow analyzers —
// flushobligation, lockorder, ipistate, detflow, mhp, lockset, fabproof —
// live there.
//
// Findings are sorted by file, line and analyzer, so output is
// byte-identical no matter how the caller schedules the work.
package typedlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Finding is one analyzer hit, in the shape every static tier reports
// (and cmd/tlbvet publishes as JSON).
type Finding struct {
	// File is the module-relative path (slash-separated).
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

// Result is the outcome of a typed-lint run.
type Result struct {
	Findings []Finding
	// FuncsVisited counts the function declarations the analyzers walked;
	// coverage-floor tests compare deeper tiers against it.
	FuncsVisited int
	// Timings holds per-analyzer wall-clock milliseconds, so the CI
	// static-tier budget is attributable per checker. Wall-clock is
	// nondeterministic by nature; reports keep it out of the sorted
	// findings section that must stay byte-identical.
	Timings map[string]float64
}

// CheckModule runs every typed analyzer over an already-loaded module.
func CheckModule(m *Module) *Result {
	return run(m, m.Pkgs, nil, nil)
}

// CheckModuleOnly runs only the named typed analyzers (all when names is
// empty) over an already-loaded module, sharing one typecheck.
func CheckModuleOnly(m *Module, names []string) *Result {
	return run(m, m.Pkgs, nil, names)
}

// Analyzers lists the typed-tier analyzer names in execution order, for
// -only flag validation.
func Analyzers() []string {
	var out []string
	for _, an := range analyzerTable {
		out = append(out, an.name)
	}
	return out
}

// CheckFixture typechecks one testdata fixture against the module and runs
// the analyzers with the fixture in scope, reporting only findings located
// in the fixture's file. Used by tests to prove each analyzer fires.
func CheckFixture(m *Module, file string) (*Result, error) {
	fp, err := m.LoadFixture(file)
	if err != nil {
		return nil, err
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)
	return run(m, pkgs, fp.FileNames, nil), nil
}

// analyzerTable lists the typed-tier analyzers in execution order. The
// name is the one -only accepts, the timings footer shows and every
// finding of the analyzer carries.
var analyzerTable = []struct {
	name string
	fn   func(*modCtx) []Finding
}{
	{"determinism", checkDeterminism},
	{"costliteral", checkCostLiteral},
	{"observerpurity", checkObserverPurity},
	{"parallelsafety", checkParallelSafety},
}

// run executes the analyzers over pkgs. When only is non-nil, findings are
// restricted to those files (fixture mode); module-wide context
// (summaries, call graph) still spans all of pkgs. When names is non-empty,
// only the named analyzers execute.
func run(m *Module, pkgs []*Package, only []string, names []string) *Result {
	ctx := &modCtx{m: m, pkgs: pkgs}
	res := &Result{FuncsVisited: len(AllFuncs(pkgs)), Timings: make(map[string]float64)}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, an := range analyzerTable {
		if len(want) > 0 && !want[an.name] {
			continue
		}
		start := time.Now()
		res.Findings = append(res.Findings, an.fn(ctx)...)
		res.Timings[an.name] += float64(time.Since(start).Nanoseconds()) / 1e6
	}
	if only != nil {
		res.Findings = FilterByFiles(res.Findings, only)
	}
	SortFindings(res.Findings)
	return res
}

// SortFindings orders findings by file, line, analyzer and message, the
// canonical report order every tier emits.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		if fs[i].Analyzer != fs[j].Analyzer {
			return fs[i].Analyzer < fs[j].Analyzer
		}
		return fs[i].Msg < fs[j].Msg
	})
}

// FilterByFiles keeps only findings located in the given files.
func FilterByFiles(fs []Finding, files []string) []Finding {
	allowed := make(map[string]bool, len(files))
	for _, f := range files {
		allowed[f] = true
	}
	var out []Finding
	for _, f := range fs {
		if allowed[f.File] {
			out = append(out, f)
		}
	}
	return out
}

// modCtx is the shared context every analyzer receives.
type modCtx struct {
	m    *Module
	pkgs []*Package
}

// --- shared typed helpers ---

// FileOf returns the file (and its module-relative name) containing pos.
func (p *Package) FileOf(pos token.Pos) (*ast.File, string) {
	for i, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f, p.FileNames[i]
		}
	}
	return nil, ""
}

// Unwrap strips parentheses and value-preserving conversions, so
// "uint64(x)" and "(x)" alias x for whole-argument matching.
func Unwrap(info *types.Info, e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.CallExpr:
			// A conversion parses as a call whose Fun is a type.
			if len(v.Args) == 1 && info.Types[v.Fun].IsType() {
				e = v.Args[0]
				continue
			}
			return e
		default:
			return e
		}
	}
}

// CalleeFunc resolves a call to its *types.Func (methods, interface
// methods and plain functions). Returns nil for builtins, conversions and
// function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// IdentObj resolves an expression to the variable object it denotes
// (plain identifiers only; selectors and index expressions return nil).
func IdentObj(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	return v
}

// NamedType unwraps pointers and returns the named type of t, or nil.
func NamedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsNamed reports whether t (after pointer unwrap) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// FuncDecl pairs a declaration with its package for module-wide passes.
type FuncDecl struct {
	Pkg  *Package
	File string
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// AllFuncs lists every function declaration with a body across pkgs, in
// deterministic (package, file, source) order.
func AllFuncs(pkgs []*Package) []FuncDecl {
	var out []FuncDecl
	for _, p := range pkgs {
		for i, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				out = append(out, FuncDecl{Pkg: p, File: p.FileNames[i], Decl: fd, Obj: obj})
			}
		}
	}
	return out
}

// BuildImplMap maps each interface method declared in the module to the
// concrete module methods implementing it.
func BuildImplMap(pkgs []*Package) map[*types.Func][]*types.Func {
	out := make(map[*types.Func][]*types.Func)
	var ifaces []*types.Named
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				if _, isIface := n.Underlying().(*types.Interface); isIface {
					ifaces = append(ifaces, n)
				}
			}
		}
	}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			for _, in := range ifaces {
				iface := in.Underlying().(*types.Interface)
				if !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					impl, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, p.Types, m.Name())
					if fn, ok := impl.(*types.Func); ok {
						out[m] = append(out[m], fn)
					}
				}
			}
		}
	}
	return out
}
