package typedlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// observerpurity: hooks must be purely observational. A hook that mutates
// the state handed to it, or package-level state, silently changes
// protocol behaviour only when a checker is attached — exactly the class
// of bug the race detector's cycle-identical guarantee (internal/race)
// exists to exclude. Hook literals are recognized at three kinds of
// installation site: assignment to a field named *Hook, a field value of
// an *Observer/*Probe composite literal (or under a *Hook key), and an
// argument to SetObserver/SetProbe. Inside a hook the analyzer flags
//
//   - writes (assignment, ++/--) through a hook parameter;
//   - writes to a package-level variable, resolved by the variable's
//     scope — captured function-locals stay legal, since accumulating
//     results in the installing function is the sanctioned pattern
//     (sanitizer.Attach, experiments.RunRace);
//   - mutation through method calls: a hook body that calls a method on
//     observed state is flagged when module-wide summaries prove the
//     method (transitively) writes through its receiver — e.g.
//     sem.NoteContention() bumps the semaphore's contention counter even
//     though no assignment appears at the hook site; and
//   - aliasing: `s := e.Sem; s.NoteContention()` taints s because it was
//     derived from a hook parameter, so laundering the state through a
//     local does not escape the rule.
//
// Two carve-outs keep the rule aligned with the simulator's contract:
//
//   - Methods declared in the instrumentation packages (race, trace,
//     stats, sanitizer) are pure by convention — recording into the
//     observer's own ledger is what observers are for.
//   - workload.Env.BootHook bodies are exempt from the method-call rule:
//     the boot hook runs before the world starts, and attaching
//     instrumentation there (k.EnableRace(d), f.EnableRace()) is its
//     designed purpose. The exemption keys on the field itself, however
//     the hook is installed (env.BootHook = ..., or an Env literal).
//     Direct writes through the parameter or to package-level variables
//     are still flagged.
var pureDeclPkgs = []string{
	ModulePath + "/internal/race",
	ModulePath + "/internal/trace",
	ModulePath + "/internal/stats",
	ModulePath + "/internal/sanitizer",
}

func inPurePkg(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return true // stdlib and friends: out of scope
	}
	p := fn.Pkg().Path()
	for _, pure := range pureDeclPkgs {
		if p == pure || strings.HasPrefix(p, pure+"/") {
			return true
		}
	}
	return false
}

// checkObserverPurity runs the observer-purity analyzer.
func checkObserverPurity(ctx *modCtx) []Finding {
	mut := buildMutatingSummaries(ctx)
	impls := BuildImplMap(ctx.pkgs)
	var out []Finding
	for _, fd := range AllFuncs(ctx.pkgs) {
		info := fd.Pkg.Info
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			for _, h := range hookLits(info, n) {
				out = append(out, checkHookLit(ctx, fd, h, mut, impls)...)
			}
			return true
		})
	}
	return out
}

// hookInstall is one recognized hook literal plus its installation kind.
type hookInstall struct {
	lit  *ast.FuncLit
	boot bool // installed as workload.Env.BootHook
}

// hookLits returns the hook function literals n installs, resolved with
// type information (so an Observer composite literal is recognized by its
// named type, not by what the file happens to call it).
func hookLits(info *types.Info, n ast.Node) []hookInstall {
	var out []hookInstall
	switch v := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range v.Lhs {
			if i >= len(v.Rhs) {
				break
			}
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || !strings.HasSuffix(sel.Sel.Name, "Hook") {
				continue
			}
			if lit, ok := v.Rhs[i].(*ast.FuncLit); ok {
				out = append(out, hookInstall{lit: lit, boot: isBootHookField(info.Uses[sel.Sel])})
			}
		}
	case *ast.CompositeLit:
		tv, ok := info.Types[v]
		if !ok {
			return nil
		}
		named := NamedType(tv.Type)
		if named == nil {
			return nil
		}
		name := named.Obj().Name()
		observer := strings.HasSuffix(name, "Observer") || strings.HasSuffix(name, "Probe")
		for _, el := range v.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			lit, ok := kv.Value.(*ast.FuncLit)
			if !ok {
				continue
			}
			key, _ := kv.Key.(*ast.Ident)
			if hookKey := key != nil && strings.HasSuffix(key.Name, "Hook"); observer || hookKey {
				out = append(out, hookInstall{lit: lit, boot: hookKey && isBootHookField(info.Uses[key])})
			}
		}
	case *ast.CallExpr:
		fn := CalleeFunc(info, v)
		if fn == nil {
			return nil
		}
		switch fn.Name() {
		case "SetObserver", "SetProbe":
		default:
			return nil
		}
		for _, arg := range v.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, hookInstall{lit: lit})
			}
		}
	}
	return out
}

// isBootHookField reports whether obj is the workload.Env.BootHook field.
func isBootHookField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField() && v.Name() == "BootHook" &&
		v.Pkg() != nil && v.Pkg().Path() == ModulePath+"/internal/workload"
}

// checkHookLit flags impure statements inside one hook literal.
func checkHookLit(ctx *modCtx, fd FuncDecl, h hookInstall, mut map[*types.Func]bool, impls map[*types.Func][]*types.Func) []Finding {
	info := fd.Pkg.Info

	// Taint: the hook's parameters, plus locals derived from them.
	taint := make(map[*types.Var]bool)
	for _, field := range h.lit.Type.Params.List {
		for _, id := range field.Names {
			if v, ok := info.Defs[id].(*types.Var); ok {
				taint[v] = true
			}
		}
	}
	// Alias closure (flow-insensitive; alias-of-alias converges).
	for changed := true; changed; {
		changed = false
		ast.Inspect(h.lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, r := range as.Rhs {
				if i >= len(as.Lhs) {
					break
				}
				src := rootVar(info, r)
				if src == nil || !taint[src] {
					continue
				}
				dst := IdentObj(info, as.Lhs[i])
				if dst != nil && !taint[dst] {
					taint[dst] = true
					changed = true
				}
			}
			return true
		})
	}

	var out []Finding
	report := func(pos token.Pos, what string) {
		out = append(out, Finding{
			File: fd.File, Line: ctx.m.Fset.Position(pos).Line,
			Analyzer: "observerpurity",
			Msg:      fmt.Sprintf("hook mutates %s; observers must be purely observational", what),
		})
	}
	// reportWrite flags a write whose target is rooted in a hook parameter
	// (or an alias of one) or in a package-level variable.
	reportWrite := func(lhs ast.Expr) {
		root := rootVar(info, lhs)
		switch {
		case root == nil:
		case taint[root]:
			report(lhs.Pos(), fmt.Sprintf("observed state %q (write through hook parameter)", root.Name()))
		case root.Pkg() != nil && root.Parent() == root.Pkg().Scope():
			report(lhs.Pos(), fmt.Sprintf("package-level variable %q", root.Name()))
		}
	}
	isMutating := func(fn *types.Func) bool {
		if inPurePkg(fn) {
			return false
		}
		if mut[fn] {
			return true
		}
		for _, impl := range impls[fn] { // interface method: any impl
			if mut[impl] {
				return true
			}
		}
		return false
	}

	ast.Inspect(h.lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				reportWrite(lhs)
			}
		case *ast.IncDecStmt:
			reportWrite(v.X)
		case *ast.CallExpr:
			if h.boot {
				return true // boot hooks attach instrumentation by design
			}
			fn := CalleeFunc(info, v)
			if fn == nil || !isMutating(fn) {
				return true
			}
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if root := rootVar(info, sel.X); root != nil && taint[root] {
				report(v.Pos(), fmt.Sprintf("observed state %q via call to mutating method %s", root.Name(), fn.Name()))
			}
		}
		return true
	})
	return out
}

// buildMutatingSummaries computes, by fixpoint over the module, which
// methods write through their receiver — directly (field assignment or
// ++/--) or by calling another mutating method on receiver-rooted state.
func buildMutatingSummaries(ctx *modCtx) map[*types.Func]bool {
	funcs := AllFuncs(ctx.pkgs)
	mut := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fd := range funcs {
			if mut[fd.Obj] {
				continue
			}
			sig := fd.Obj.Type().(*types.Signature)
			if sig.Recv() == nil {
				continue
			}
			recvVar := receiverVar(fd)
			if recvVar == nil {
				continue
			}
			if methodMutates(fd, recvVar, mut) {
				mut[fd.Obj] = true
				changed = true
			}
		}
	}
	return mut
}

// receiverVar returns the *types.Var bound to fd's receiver name.
func receiverVar(fd FuncDecl) *types.Var {
	if fd.Decl.Recv == nil || len(fd.Decl.Recv.List) == 0 {
		return nil
	}
	names := fd.Decl.Recv.List[0].Names
	if len(names) == 0 {
		return nil // anonymous receiver cannot be written through
	}
	v, _ := fd.Pkg.Info.Defs[names[0]].(*types.Var)
	return v
}

// methodMutates reports whether fd writes through recvVar under the
// current fixpoint state.
func methodMutates(fd FuncDecl, recvVar *types.Var, mut map[*types.Func]bool) bool {
	info := fd.Pkg.Info
	found := false
	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				// A write to the bare receiver variable itself rebinds a
				// local copy; only writes through it (selector/index/deref)
				// mutate the object.
				if _, bare := ast.Unparen(lhs).(*ast.Ident); bare {
					continue
				}
				if root := rootVar(info, lhs); root == recvVar {
					found = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if _, bare := ast.Unparen(v.X).(*ast.Ident); bare {
				return true
			}
			if root := rootVar(info, v.X); root == recvVar {
				found = true
				return false
			}
		case *ast.CallExpr:
			fn := CalleeFunc(info, v)
			if fn == nil || !mut[fn] {
				return true
			}
			sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if root := rootVar(info, sel.X); root == recvVar {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rootVar walks selector/index/star/paren chains to the base identifier
// and resolves it to a variable (nil when the chain bottoms out in a call
// result, a package name or anything else that is not a variable).
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj, _ := info.ObjectOf(v).(*types.Var)
			return obj
		case *ast.SelectorExpr:
			// x in pkg.X is a package name, not a variable; ObjectOf on the
			// base ident sorts that out below.
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
