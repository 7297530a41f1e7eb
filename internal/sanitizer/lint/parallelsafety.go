package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// parallelsafety guards the scheduler's core assumption (internal/sched):
// every simulated world is self-contained, so experiment cells may run
// concurrently and still produce byte-identical results. A mutable
// package-level variable in a simulated package is cross-world shared
// state — two concurrently booted machines would observe each other, which
// is both a data race under `go test -race` and a determinism leak.
//
// The analyzer flags every package-level `var` in the simulated packages
// except immutable error sentinels (every initializer is errors.New or
// fmt.Errorf, the conventional Go error-identity pattern) and the blank
// identifier. There is no waiver: configuration a world needs travels in
// its workload.Env, not in a global.
var parallelScope = []string{
	"internal/apic/", "internal/cache/", "internal/core/",
	"internal/daemons/", "internal/fault/", "internal/kernel/",
	"internal/mach/", "internal/mm/", "internal/pagetable/",
	"internal/sim/", "internal/smp/", "internal/stats/",
	"internal/syscalls/", "internal/tlb/", "internal/virt/",
	"internal/workload/",
}

func inParallelScope(rel string) bool {
	rel = filepath.ToSlash(rel)
	for _, p := range parallelScope {
		if strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

// InParallelScope reports whether the module-relative path rel lies inside
// a simulated package. The ssa tier's detflow analyzer shares this
// definition of "simulated state".
func InParallelScope(rel string) bool {
	return inParallelScope(rel)
}

func checkParallelSafety(fset *token.FileSet, rel string, f *ast.File) []Finding {
	var out []Finding
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || isErrorSentinel(vs) {
				continue
			}
			for _, id := range vs.Names {
				if id.Name == "_" {
					continue
				}
				out = append(out, Finding{
					File: rel, Line: fset.Position(id.Pos()).Line,
					Analyzer: "parallelsafety",
					Msg:      fmt.Sprintf("package-level var %q in a simulated package: worlds run concurrently under internal/sched, so mutable globals are cross-world races — move it into the world's state or its workload.Env", id.Name),
				})
			}
		}
	}
	return out
}

// isErrorSentinel reports whether every initializer of the spec is an
// errors.New or fmt.Errorf call — the immutable error-identity pattern.
func isErrorSentinel(vs *ast.ValueSpec) bool {
	if len(vs.Values) == 0 || len(vs.Values) != len(vs.Names) {
		return false
	}
	for _, v := range vs.Values {
		call, ok := v.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		if !(pkg.Name == "errors" && sel.Sel.Name == "New") &&
			!(pkg.Name == "fmt" && sel.Sel.Name == "Errorf") {
			return false
		}
	}
	return true
}
