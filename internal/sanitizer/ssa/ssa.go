// Package ssa is the deepest static-analysis tier: a stdlib-only
// def-use/SSA-form IR lowered from per-function CFGs, with interprocedural
// summaries computed over a fixpoint call graph. Where typedlint answers
// "what does this expression mean", this tier answers "what happens to
// this value on every path".
//
// Analyzers:
//
//   - flushobligation: every value of type mm.FlushRange returned by a
//     module call must reach a shootdown discharge (kernel.Flusher's
//     FlushAfter, or a callee proven to discharge it) on every path, be
//     returned to the caller, or carry an "obligation-transferred:" marker.
//   - lockorder: a static lockdep over the call graph — acquisition-order
//     cycles between mm.RWSem classes are reported without running a
//     single seed.
//   - ipistate: a typestate checker for the shootdown request lifecycle.
//     Every smp.Request born from CallMany must follow the DFA
//     new → kicked → waited → (acked | timeout → rekick{≤MaxKickRetries}
//     → degrade-to-full) → discharged on every path: no wait-before-kick,
//     no double-discharge, no leaked in-flight request. Deferred-discharge
//     edges (return or enqueue to a field) transfer the obligation to the
//     consumer, so the ROADMAP-1 async fabric lands checker-first.
//   - detflow: a nondeterminism-taint analysis proving the parallel
//     harness guarantee statically. Sources (time.Now, math/rand outside
//     fault.Decide, map-range order, select arms, goroutine identity)
//     must never flow into simulated state, StateDigest inputs, stats, or
//     event timestamps; sorting sanitizes iteration-order taint.
//   - stalemarker: suppression markers that no analyzer consumed are
//     themselves findings, so retired suppressions cannot linger.
//
// Findings reuse lint.Finding and are sorted by file, line and analyzer,
// so output is byte-identical no matter how the caller schedules the work.
package ssa

import (
	"go/token"
	"go/types"
	"time"

	"shootdown/internal/sanitizer/lint"
	"shootdown/internal/sanitizer/typedlint"
)

// The loader, typed helpers and marker index are shared with typedlint;
// local names keep the analyzer bodies terse.
type (
	// Module is the loaded and typechecked analysis target.
	Module = typedlint.Module
	// Package is one typechecked package of the module.
	Package = typedlint.Package
	// Suppression is a finding silenced by a documented marker.
	Suppression = typedlint.Suppression
	// FuncDecl pairs a declaration with its package.
	FuncDecl = typedlint.FuncDecl
)

const (
	modPath        = typedlint.ModulePath
	transferMarker = typedlint.TransferMarker
	lockFreeMarker = typedlint.LockFreeMarker
	fabBoundMarker = typedlint.FabBoundMarker
)

var (
	allFuncs   = typedlint.AllFuncs
	unwrap     = typedlint.Unwrap
	calleeFunc = typedlint.CalleeFunc
	identObj   = typedlint.IdentObj
	namedType  = typedlint.NamedType
	isNamed    = typedlint.IsNamed
	inFixture  = typedlint.InFixture
)

func buildImplMap(pkgs []*Package) map[*types.Func][]*types.Func {
	return typedlint.BuildImplMap(pkgs)
}

// Result is the outcome of an ssa-tier run.
type Result struct {
	Findings     []lint.Finding
	Suppressions []Suppression
	// Witnesses are the expected rediscoveries of config-seeded faults:
	// violations the lockset prover finds at deliberately broken sites
	// (Config.BrokenEarlyAck). They are not findings — the breakage is
	// intentional — but their exact count is part of the cross-validation
	// contract with the dynamic race model.
	Witnesses []lint.Finding
	// XVal is the cross-validation report: one row per internal/race
	// registry entry with its static discharge status.
	XVal []XValRow
	// FabRows is the fabproof report: one row per fabric obligation with
	// its proof status (proven / waived / unproven). CI fails on any
	// unproven row, mirroring the XVal artifact.
	FabRows []FabRow
	// FuncsVisited counts, per analyzer, the function declarations walked;
	// the coverage-floor test asserts the whole-program analyzers visit at
	// least as many functions as the typedlint tier.
	FuncsVisited map[string]int
	// Timings holds per-analyzer wall-clock milliseconds. Reports keep it
	// out of the byte-identical sections: it is footer-only diagnostics.
	Timings map[string]float64
}

// lockResult carries the lockset analyzer's extra outputs to Result.
type lockResult struct {
	witnesses []lint.Finding
	xval      []XValRow
}

// modCtx is the shared context every analyzer receives.
type modCtx struct {
	m       *Module
	pkgs    []*Package
	markers typedlint.MarkerIndex
	// visited records per-analyzer function coverage (written by each
	// analyzer, read by coverage-floor tests).
	visited map[string]int
	// usedMarkers records marker lines consumed as suppressions, keyed by
	// file then marker line, so stalemarker can flag the rest.
	usedMarkers map[string]map[int]bool
	// lockMarkers/usedLockMarkers do the same for the lockset tier's
	// "lock-free-by-design:" waivers.
	lockMarkers     typedlint.MarkerIndex
	usedLockMarkers map[string]map[int]bool
	// fabMarkers/usedFabMarkers do the same for the fabproof tier's
	// "bounded-by-design:" waivers.
	fabMarkers     typedlint.MarkerIndex
	usedFabMarkers map[string]map[int]bool
	// lockRes is filled by checkLockset for run() to lift into Result.
	lockRes *lockResult
	// fabRes is filled by checkFabproof for run() to lift into Result.
	fabRes *fabResult
	// prog caches the whole-module SSA form shared by the analyzers.
	prog *Program
	// mhp caches the may-happen-in-parallel facts (built by checkMHP,
	// reused by lockset's confinement and handler-reachability proofs).
	mhp *mhpInfo
}

func (ctx *modCtx) markerFor(file string, line int) (string, bool) {
	return consumeMarker(ctx.markers, ctx.usedMarkers, file, line)
}

func (ctx *modCtx) lockMarkerFor(file string, line int) (string, bool) {
	return consumeMarker(ctx.lockMarkers, ctx.usedLockMarkers, file, line)
}

func (ctx *modCtx) fabMarkerFor(file string, line int) (string, bool) {
	return consumeMarker(ctx.fabMarkers, ctx.usedFabMarkers, file, line)
}

// consumeMarker resolves a marker covering line and records the marker's
// own line as consumed, so stalemarker can flag the rest.
func consumeMarker(idx typedlint.MarkerIndex, used map[string]map[int]bool, file string, line int) (string, bool) {
	r, ok := idx.For(file, line)
	if ok {
		ml := line
		if _, direct := idx[file][line]; !direct {
			ml = line - 1
		}
		if used[file] == nil {
			used[file] = make(map[int]bool)
		}
		used[file][ml] = true
	}
	return r, ok
}

// Check loads the enclosing module and runs every ssa-tier analyzer.
func Check() (*Result, error) {
	m, err := typedlint.LoadModule()
	if err != nil {
		return nil, err
	}
	return CheckModule(m), nil
}

// CheckModule runs every ssa-tier analyzer over an already-loaded module.
func CheckModule(m *Module) *Result {
	return run(m, m.Pkgs, nil, nil)
}

// CheckModuleOnly runs only the named ssa-tier analyzers (all when names
// is empty) over an already-loaded module, sharing one typecheck.
func CheckModuleOnly(m *Module, names []string) *Result {
	return run(m, m.Pkgs, nil, names)
}

// Analyzers lists the ssa-tier analyzer names in execution order, for
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
// in the fixture's file.
func CheckFixture(m *Module, file string) (*Result, error) {
	fp, err := m.LoadFixture(file)
	if err != nil {
		return nil, err
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)
	return run(m, pkgs, fp, nil), nil
}

// analyzerTable lists the ssa-tier analyzers in execution order.
// stalemarker must run last: it flags markers nothing else consumed, so
// it is skipped in -only runs that omit any marker-consuming analyzer.
var analyzerTable = []struct {
	name string
	run  func(*modCtx) ([]lint.Finding, []Suppression)
}{
	{"flushobligation", checkFlushObligation},
	{"lockorder", checkLockOrder},
	{"ipistate", checkIPIState},
	{"detflow", checkDetFlow},
	{"mhp", checkMHP},
	{"lockset", checkLockset},
	{"fabproof", checkFabproof},
	{"stalemarker", checkStaleMarkers},
}

// run executes the analyzers over pkgs. When only is non-nil, findings are
// restricted to that package's files (fixture mode); module-wide context
// (summaries, call graph) still spans all of pkgs. When names is non-empty,
// only the named analyzers execute — except stalemarker, which additionally
// requires every marker-consuming analyzer to have run (otherwise unconsumed
// markers would be false positives).
func run(m *Module, pkgs []*Package, only *Package, names []string) *Result {
	ctx := &modCtx{
		m:               m,
		pkgs:            pkgs,
		markers:         typedlint.CollectMarkers(m.Fset, pkgs),
		lockMarkers:     typedlint.CollectMarkersFor(m.Fset, pkgs, lockFreeMarker),
		fabMarkers:      typedlint.CollectMarkersFor(m.Fset, pkgs, fabBoundMarker),
		visited:         make(map[string]int),
		usedMarkers:     make(map[string]map[int]bool),
		usedLockMarkers: make(map[string]map[int]bool),
		usedFabMarkers:  make(map[string]map[int]bool),
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	partial := len(want) > 0 && func() bool {
		for _, an := range analyzerTable {
			if an.name != "stalemarker" && !want[an.name] {
				return true
			}
		}
		return false
	}()
	res := &Result{Timings: make(map[string]float64)}
	for _, an := range analyzerTable {
		if len(want) > 0 && !want[an.name] {
			continue
		}
		if an.name == "stalemarker" && partial {
			continue
		}
		start := time.Now()
		fs, sups := an.run(ctx)
		res.Timings[an.name] += float64(time.Since(start).Nanoseconds()) / 1e6
		res.Findings = append(res.Findings, fs...)
		res.Suppressions = append(res.Suppressions, sups...)
	}
	if ctx.lockRes != nil {
		res.Witnesses = append(res.Witnesses, ctx.lockRes.witnesses...)
		res.XVal = ctx.lockRes.xval
	}
	if ctx.fabRes != nil {
		res.Witnesses = append(res.Witnesses, ctx.fabRes.witnesses...)
		res.FabRows = ctx.fabRes.rows
	}
	res.FuncsVisited = ctx.visited
	if only != nil {
		res.Findings = typedlint.FilterByFiles(res.Findings, only.FileNames)
		res.Suppressions = typedlint.FilterSupsByFiles(res.Suppressions, only.FileNames)
		res.Witnesses = typedlint.FilterByFiles(res.Witnesses, only.FileNames)
	}
	sortFindings(res.Findings)
	typedlint.SortSuppressions(res.Suppressions)
	sortFindings(res.Witnesses)
	return res
}

// sortFindings is the one canonical finding order for the ssa tier; every
// analyzer and the combined report sort through it so output is
// byte-identical no matter how the caller schedules the work.
func sortFindings(fs []lint.Finding) {
	typedlint.SortFindings(fs)
}

// checkStaleMarkers reports every suppression marker that no analyzer
// consumed: a retired suppression is itself a finding, so dead waivers
// cannot accumulate in the tree. Both marker vocabularies are covered —
// "obligation-transferred:" (flushobligation) and "lock-free-by-design:"
// (lockset).
func checkStaleMarkers(ctx *modCtx) ([]lint.Finding, []Suppression) {
	var findings []lint.Finding
	for _, mk := range []struct {
		idx    typedlint.MarkerIndex
		used   map[string]map[int]bool
		marker string
		why    string
	}{
		{ctx.markers, ctx.usedMarkers, transferMarker,
			"the flush obligation here is already proven discharged"},
		{ctx.lockMarkers, ctx.usedLockMarkers, lockFreeMarker,
			"the lockset tier proves this access disciplined without a waiver"},
		{ctx.fabMarkers, ctx.usedFabMarkers, fabBoundMarker,
			"the fabproof tier proves this bound without a waiver"},
	} {
		for file, lines := range mk.idx {
			for line := range lines {
				if mk.used[file][line] {
					continue
				}
				findings = append(findings, lint.Finding{
					File: file, Line: line, Analyzer: "stalemarker",
					Msg: "stale \"" + mk.marker + "\" marker: " + mk.why + "; delete the marker",
				})
			}
		}
	}
	return findings, nil
}

// funcIdent names fd as "pkg.Func" or "pkg.Recv.Method" for reports.
func funcIdent(fd FuncDecl) string {
	name := fd.Obj.Name()
	if sig, ok := fd.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n := namedType(sig.Recv().Type()); n != nil {
			name = n.Obj().Name() + "." + name
		}
	}
	return fd.Obj.Pkg().Name() + "." + name
}

// posLine locates pos as a (module-relative file, line) pair within fd's
// package, falling back to the declaring file when pos is synthetic.
func (ctx *modCtx) posLine(fd FuncDecl, pos token.Pos) (string, int) {
	_, rel := fd.Pkg.FileOf(pos)
	if rel == "" {
		rel = fd.File
	}
	return rel, ctx.m.Fset.Position(pos).Line
}
