package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// observerpurity enforces the contract every hook in the simulator
// documents: observers must be purely observational. A hook that mutates
// the state handed to it (its parameters) or package-level state silently
// changes protocol behaviour only when a checker is attached, which is
// exactly the class of bug the race detector's cycle-identical guarantee
// (internal/race) exists to exclude.
//
// Hook function literals are recognized syntactically at three kinds of
// installation site:
//
//   - assignment to a field whose name ends in "Hook"
//     (k.ASHook = func(...){...}, env.BootHook = func(...){...})
//   - a field value inside a composite literal of a type whose name ends
//     in "Observer" or "Probe" (&mm.SemObserver{Acquired: func(...){...}}),
//     or under a key ending in "Hook" (workload.Env{BootHook: func(...){...}})
//   - an argument to SetObserver or SetProbe
//
// Inside a recognized hook body the analyzer flags assignments and ++/--
// whose target is reached from a hook parameter (the simulated state under
// observation) or from a package-level variable of the file. Writes to
// captured function-locals stay legal — accumulating results in the
// installing function is the sanctioned pattern (see sanitizer.Attach and
// experiments.RunRace).
func checkObserverPurity(fset *token.FileSet, rel string, f *ast.File) []Finding {
	pkgVars := collectPackageVars(f)
	var out []Finding
	report := func(pos token.Pos, target, why string) {
		out = append(out, Finding{
			File: rel, Line: fset.Position(pos).Line,
			Analyzer: "observerpurity",
			Msg:      fmt.Sprintf("hook mutates %s %q; observers must be purely observational", why, target),
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		for _, lit := range hookFuncLits(n) {
			checkHookBody(lit, pkgVars, report)
		}
		return true
	})
	return out
}

// hookFuncLits returns the function literals n installs as hooks.
func hookFuncLits(n ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
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
				out = append(out, lit)
			}
		}
	case *ast.CompositeLit:
		observer := isObserverType(v.Type)
		for _, el := range v.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, _ := kv.Key.(*ast.Ident)
			hookKey := key != nil && strings.HasSuffix(key.Name, "Hook")
			if lit, ok := kv.Value.(*ast.FuncLit); ok && (observer || hookKey) {
				out = append(out, lit)
			}
		}
	case *ast.CallExpr:
		name := calleeName(v.Fun)
		if name != "SetObserver" && name != "SetProbe" {
			return nil
		}
		for _, arg := range v.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				out = append(out, lit)
			}
		}
	}
	return out
}

func isObserverType(t ast.Expr) bool {
	name := ""
	switch v := t.(type) {
	case *ast.Ident:
		name = v.Name
	case *ast.SelectorExpr:
		name = v.Sel.Name
	}
	return strings.HasSuffix(name, "Observer") || strings.HasSuffix(name, "Probe")
}

func calleeName(fun ast.Expr) string {
	switch v := fun.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// checkHookBody flags impure statements inside one hook literal.
func checkHookBody(lit *ast.FuncLit, pkgVars map[string]bool, report func(pos token.Pos, target, why string)) {
	params := make(map[string]bool)
	for _, field := range lit.Type.Params.List {
		for _, id := range field.Names {
			params[id.Name] = true
		}
	}
	classify := func(e ast.Expr) (string, string, bool) {
		root := rootIdent(e)
		if root == nil || root.Name == "_" {
			return "", "", false
		}
		if params[root.Name] {
			return root.Name, "observed state (hook parameter)", true
		}
		if pkgVars[root.Name] {
			return root.Name, "package-level variable", true
		}
		return "", "", false
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range v.Lhs {
				if target, why, bad := classify(lhs); bad {
					report(lhs.Pos(), target, why)
				}
			}
		case *ast.IncDecStmt:
			if target, why, bad := classify(v.X); bad {
				report(v.X.Pos(), target, why)
			}
		}
		return true
	})
}

// collectPackageVars gathers the file's package-level var names.
func collectPackageVars(f *ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, id := range vs.Names {
				out[id.Name] = true
			}
		}
	}
	return out
}

// rootIdent walks selector/index/star/paren chains to the base identifier
// (nil when the expression does not bottom out in one, e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
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
