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
//   - mhp and lockset: the concurrency-proof pair — may-happen-in-parallel
//     contexts, and discharge proofs for every race-instrumented field,
//     including that raw accesses to a registered field stay inside units
//     the detector instruments (or, for a single-writer epoch, inside
//     methods of the owning struct).
//   - fabproof: numeric abstract-interpretation proofs of the async
//     fabric's ring bounds, monotonicity and coalescing soundness.
//   - stalemarker: suppression markers that no analyzer consumed are
//     themselves findings, so retired suppressions cannot linger.
//
// This tier is the only producer of suppressions: a finding silenced by a
// documented marker comment is reported as a Suppression so waivers stay
// auditable (cmd/tlbvet -suppressions). Findings reuse typedlint.Finding
// and are sorted by file, line and analyzer, so output is byte-identical
// no matter how the caller schedules the work.
package ssa

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"

	"shootdown/internal/sanitizer/typedlint"
)

// The loader and typed helpers are shared with typedlint; local names
// keep the analyzer bodies terse.
type (
	// Module is the loaded and typechecked analysis target.
	Module = typedlint.Module
	// Package is one typechecked package of the module.
	Package = typedlint.Package
	// Finding is one analyzer hit.
	Finding = typedlint.Finding
	// FuncDecl pairs a declaration with its package.
	FuncDecl = typedlint.FuncDecl
)

const modPath = typedlint.ModulePath

var (
	allFuncs   = typedlint.AllFuncs
	unwrap     = typedlint.Unwrap
	calleeFunc = typedlint.CalleeFunc
	identObj   = typedlint.IdentObj
	namedType  = typedlint.NamedType
	isNamed    = typedlint.IsNamed
)

// Suppression records a finding silenced by a documented marker, so
// suppressions stay auditable.
type Suppression struct {
	// File and Line locate the suppressed site (module-relative).
	File string
	Line int
	// Analyzer names the rule that would have fired.
	Analyzer string
	// Reason is the marker text after the colon.
	Reason string
}

// The marker vocabulary: each comment marker waives one analyzer's
// finding, and an unconsumed one is a stalemarker finding.
const (
	// transferMarker waives a flush obligation.
	transferMarker = "obligation-transferred:"
	// lockFreeMarker waives a lockset finding: it documents why an access
	// to shared state needs no lock/atomic/ownership discharge.
	lockFreeMarker = "lock-free-by-design:"
	// fabBoundMarker waives a fabproof obligation: it documents why a
	// fabric bound the numeric tier cannot discharge holds anyway.
	fabBoundMarker = "bounded-by-design:"
)

// markerIndex maps file → line → marker reason. A marker covers its own
// line and the line below it (doc-comment style).
type markerIndex map[string]map[int]string

// collectMarkers indexes every comment starting with marker.
func collectMarkers(fset *token.FileSet, pkgs []*Package, marker string) markerIndex {
	out := make(markerIndex)
	for _, p := range pkgs {
		for i, f := range p.Files {
			rel := p.FileNames[i]
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Only a comment that *starts* with the marker counts;
					// prose that merely mentions the marker string (docs,
					// quoted examples) is not a waiver.
					text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
					if !strings.HasPrefix(text, marker) {
						continue
					}
					reason := strings.TrimSpace(text[len(marker):])
					if out[rel] == nil {
						out[rel] = make(map[int]string)
					}
					out[rel][fset.Position(c.End()).Line] = reason
				}
			}
		}
	}
	return out
}

// For returns the marker reason covering line (the marker may sit on the
// line itself or on the line above).
func (mi markerIndex) For(file string, line int) (string, bool) {
	lines := mi[file]
	if lines == nil {
		return "", false
	}
	if r, ok := lines[line]; ok {
		return r, true
	}
	r, ok := lines[line-1]
	return r, ok
}

func buildImplMap(pkgs []*Package) map[*types.Func][]*types.Func {
	return typedlint.BuildImplMap(pkgs)
}

// Result is the outcome of an ssa-tier run.
type Result struct {
	Findings     []Finding
	Suppressions []Suppression
	// Witnesses are the expected rediscoveries of config-seeded faults:
	// violations the lockset prover finds at deliberately broken sites
	// (Config.BrokenEarlyAck). They are not findings — the breakage is
	// intentional — but their exact count is part of the cross-validation
	// contract with the dynamic race model.
	Witnesses []Finding
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
	witnesses []Finding
	xval      []XValRow
}

// modCtx is the shared context every analyzer receives.
type modCtx struct {
	m       *Module
	pkgs    []*Package
	markers markerIndex
	// visited records per-analyzer function coverage (written by each
	// analyzer, read by coverage-floor tests).
	visited map[string]int
	// usedMarkers records marker lines consumed as suppressions, keyed by
	// file then marker line, so stalemarker can flag the rest.
	usedMarkers map[string]map[int]bool
	// lockMarkers/usedLockMarkers do the same for the lockset tier's
	// "lock-free-by-design:" waivers.
	lockMarkers     markerIndex
	usedLockMarkers map[string]map[int]bool
	// fabMarkers/usedFabMarkers do the same for the fabproof tier's
	// "bounded-by-design:" waivers.
	fabMarkers     markerIndex
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
func consumeMarker(idx markerIndex, used map[string]map[int]bool, file string, line int) (string, bool) {
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
	return CheckFixtureIn(m, file, "")
}

// CheckFixtureIn is CheckFixture for a fixture typechecked inside the
// module package at pkgPath (see typedlint.Module.LoadFixtureIn), so it
// can reach that package's unexported fields. Findings are still
// restricted to the fixture file itself.
func CheckFixtureIn(m *Module, file, pkgPath string) (*Result, error) {
	fp, err := m.LoadFixtureIn(file, pkgPath)
	if err != nil {
		return nil, err
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)
	// The fixture is always the package's last file.
	return run(m, pkgs, fp.FileNames[len(fp.FileNames)-1:], nil), nil
}

// analyzerTable lists the ssa-tier analyzers in execution order.
// stalemarker must run last: it flags markers nothing else consumed, so
// it is skipped in -only runs that omit any marker-consuming analyzer.
var analyzerTable = []struct {
	name string
	run  func(*modCtx) ([]Finding, []Suppression)
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
// restricted to those files (fixture mode); module-wide context
// (summaries, call graph) still spans all of pkgs. When names is non-empty,
// only the named analyzers execute — except stalemarker, which additionally
// requires every marker-consuming analyzer to have run (otherwise unconsumed
// markers would be false positives).
func run(m *Module, pkgs []*Package, only []string, names []string) *Result {
	ctx := &modCtx{
		m:               m,
		pkgs:            pkgs,
		markers:         collectMarkers(m.Fset, pkgs, transferMarker),
		lockMarkers:     collectMarkers(m.Fset, pkgs, lockFreeMarker),
		fabMarkers:      collectMarkers(m.Fset, pkgs, fabBoundMarker),
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
		res.Findings = typedlint.FilterByFiles(res.Findings, only)
		res.Suppressions = filterSupsByFiles(res.Suppressions, only)
		res.Witnesses = typedlint.FilterByFiles(res.Witnesses, only)
	}
	sortFindings(res.Findings)
	SortSuppressions(res.Suppressions)
	sortFindings(res.Witnesses)
	return res
}

// SortSuppressions orders suppressions by file, line and analyzer.
func SortSuppressions(sups []Suppression) {
	sort.Slice(sups, func(i, j int) bool {
		a, b := sups[i], sups[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// filterSupsByFiles keeps only suppressions located in the given files.
func filterSupsByFiles(sups []Suppression, files []string) []Suppression {
	allowed := make(map[string]bool, len(files))
	for _, f := range files {
		allowed[f] = true
	}
	var out []Suppression
	for _, s := range sups {
		if allowed[s.File] {
			out = append(out, s)
		}
	}
	return out
}

// sortFindings is the one canonical finding order for the ssa tier; every
// analyzer and the combined report sort through it so output is
// byte-identical no matter how the caller schedules the work.
func sortFindings(fs []Finding) {
	typedlint.SortFindings(fs)
}

// checkStaleMarkers reports every suppression marker that no analyzer
// consumed: a retired suppression is itself a finding, so dead waivers
// cannot accumulate in the tree. Both marker vocabularies are covered —
// "obligation-transferred:" (flushobligation) and "lock-free-by-design:"
// (lockset).
func checkStaleMarkers(ctx *modCtx) ([]Finding, []Suppression) {
	var findings []Finding
	for _, mk := range []struct {
		idx    markerIndex
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
				findings = append(findings, Finding{
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
