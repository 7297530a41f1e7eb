package typedlint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// costliteral: every cycle cost charged in the machine-model packages
// must come from the cost model. The analyzer flags
//
//   - integer literals, named constants and constant expressions (go/types
//     constant folding evaluates them, so `p.Delay(fixedCost)` is as
//     visible as `p.Delay(123)`), and
//   - thin wrappers: a parameter that a function forwards whole to Delay
//     (or to another cost-like parameter) is itself cost-like, so a
//     constant passed to the wrapper is flagged at the wrapper's call
//     site.
//
// The sink is (*sim.Proc).Delay resolved by callee identity, not method
// name, so an unrelated Delay method elsewhere cannot confuse the pass.

// isDelaySink reports whether fn is (*sim.Proc).Delay.
func isDelaySink(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Delay" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsNamed(sig.Recv().Type(), ModulePath+"/internal/sim", "Proc")
}

// costParam identifies one cost-like parameter of a module function.
type costParam struct {
	fn  *types.Func
	idx int // index into the signature's params
}

// checkCostLiteral runs the costliteral analyzer.
func checkCostLiteral(ctx *modCtx) []Finding {
	funcs := AllFuncs(ctx.pkgs)

	// Fixpoint: a parameter is cost-like when its function passes it whole
	// (modulo parens and conversions) to Delay or to an already cost-like
	// parameter. Thin wrappers of wrappers converge in a few rounds.
	costLike := make(map[costParam]bool)
	paramIndex := func(fn FuncDecl, v *types.Var) int {
		sig := fn.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return i
			}
		}
		return -1
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			info := fd.Pkg.Info
			ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := CalleeFunc(info, call)
				if callee == nil {
					return true
				}
				for i, arg := range call.Args {
					v := IdentObj(info, Unwrap(info, arg))
					if v == nil {
						continue
					}
					pi := paramIndex(fd, v)
					if pi < 0 {
						continue
					}
					sunk := (isDelaySink(callee) && i == 0) ||
						costLike[costParam{fn: callee, idx: i}]
					key := costParam{fn: fd.Obj, idx: pi}
					if sunk && !costLike[key] {
						costLike[key] = true
						changed = true
					}
				}
				return true
			})
		}
	}

	// Flag compile-time-constant arguments reaching a sink from cost-scope
	// code. Zero is exempt: `Delay(0)` is an explicit no-op, not a cost.
	var out []Finding
	for _, fd := range funcs {
		if !inCostScope(fd.File) {
			continue
		}
		info := fd.Pkg.Info
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := CalleeFunc(info, call)
			if callee == nil {
				return true
			}
			for i, arg := range call.Args {
				isSink := (isDelaySink(callee) && i == 0) ||
					costLike[costParam{fn: callee, idx: i}]
				if !isSink {
					continue
				}
				tv, ok := info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
					continue
				}
				if v, ok := constant.Uint64Val(tv.Value); ok && v == 0 {
					continue
				}
				what := "constant cycle cost"
				if _, lit := ast.Unparen(arg).(*ast.BasicLit); !lit {
					what = "named-constant cycle cost"
				}
				dest := "Delay"
				if !isDelaySink(callee) {
					dest = fmt.Sprintf("cost parameter %d of %s", i, callee.Name())
				}
				out = append(out, Finding{
					File: fd.File, Line: ctx.m.Fset.Position(arg.Pos()).Line,
					Analyzer: "costliteral",
					Msg: fmt.Sprintf("%s %s passed to %s; route it through the cost model (internal/mach/costs.go)",
						what, tv.Value.ExactString(), dest),
				})
			}
			return true
		})
	}
	return out
}
