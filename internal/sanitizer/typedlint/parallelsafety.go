package typedlint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// parallelsafety guards the scheduler's core assumption (internal/sched):
// every simulated world is self-contained, so experiment cells may run
// concurrently and still produce byte-identical results. A mutable
// package-level variable in a simulated package is cross-world shared
// state — two concurrently booted machines would observe each other, which
// is both a data race under `go test -race` and a determinism leak.
//
// The analyzer flags every package-level var in the simulated packages
// except immutable error sentinels (every initializer is a call to
// errors.New or fmt.Errorf, resolved by callee identity) and the blank
// identifier. There is no waiver: configuration a world needs travels in
// its workload.Env, not in a global.
func checkParallelSafety(ctx *modCtx) []Finding {
	var out []Finding
	for _, p := range ctx.pkgs {
		for i, f := range p.Files {
			rel := p.FileNames[i]
			if !InSimulatedScope(rel) {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					if isErrorSentinel(p, vs) {
						continue
					}
					for _, id := range vs.Names {
						if id.Name == "_" {
							continue
						}
						out = append(out, Finding{
							File: rel, Line: ctx.m.Fset.Position(id.Pos()).Line,
							Analyzer: "parallelsafety",
							Msg:      fmt.Sprintf("package-level var %q in a simulated package: worlds run concurrently under internal/sched, so mutable globals are cross-world races — move it into the world's state or its workload.Env", id.Name),
						})
					}
				}
			}
		}
	}
	return out
}

// isErrorSentinel reports whether every initializer of the spec is an
// errors.New or fmt.Errorf call — the immutable error-identity pattern.
func isErrorSentinel(p *Package, vs *ast.ValueSpec) bool {
	if len(vs.Values) == 0 || len(vs.Values) != len(vs.Names) {
		return false
	}
	for _, v := range vs.Values {
		call, ok := ast.Unparen(v).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := CalleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() + "." + fn.Name() {
		case "errors.New", "fmt.Errorf":
		default:
			return false
		}
	}
	return true
}
