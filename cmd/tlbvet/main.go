// Command tlbvet is the repository's one static-analysis entry point. It
// runs both tiers over the module: the typed tier
// (internal/sanitizer/typedlint — whole-module typechecking on stdlib
// go/types only) and the ssa tier (internal/sanitizer/ssa — a def-use/SSA
// IR with interprocedural summaries over a fixpoint call graph). Each
// static property is checked by exactly one analyzer:
//
//   - flushobligation: every restrictive page-table mutation's returned
//     mm.FlushRange must reach a shootdown discharge on every path, be
//     returned to the caller, or carry an "obligation-transferred:" marker
//   - lockorder: static lockdep — acquisition-order cycles between
//     mm.RWSem lock classes anywhere in the call graph
//   - ipistate: typestate DFA for the shootdown request lifecycle
//     (new → kicked → waited → acked/timeout-recovery → discharged,
//     with deferred-discharge and enqueue-transfer edges)
//   - mhp: may-happen-in-parallel contexts over every spawn edge
//     (Engine.Go procs, Task bodies, IPI handlers, deferred-flush
//     closures, sched pool fan-out); blocking calls in IPI-handler
//     context are findings
//   - lockset: RacerD-style discharge proofs for every field the dynamic
//     race model instruments (internal/race.Registry): atomic hooks,
//     CPU confinement, ack ordering, single-writer epochs. The seeded
//     BrokenEarlyAck violation must surface as exactly one witness; the
//     per-entry statuses are the RACE_XVAL cross-validation artifact
//   - fabproof: numeric abstract-interpretation proofs for the async
//     shootdown fabric — ring appends bounded by the declared capacity
//     with overflow provably collapsing to a full flush, posted/acked
//     sequence and TLB-generation monotonicity, watchdog retry caps,
//     coalescing soundness as interval containment (the seeded
//     BrokenCoalesceShrink coverage loss must surface as exactly one
//     witness), callback-fires-exactly-once including the FreedTables
//     synchronous fallback, and ring-entry well-formedness. The
//     per-obligation statuses are the FABPROOF artifact
//   - detflow: nondeterminism-taint — time.Now, math/rand, map-range
//     order and select arms must never reach simulated state, digests,
//     stats or event timestamps
//   - stalemarker: suppression markers nothing consumed are findings
//     ("obligation-transferred:" and "lock-free-by-design:" alike)
//   - costliteral: constant cycle costs (literals, named constants and
//     thin Delay wrappers) outside the cost model
//   - determinism: banned imports (time, math/rand) by path, catching
//     aliased/dot/blank forms
//   - observerpurity: hooks writing observed state or package-level
//     variables, including through mutating method calls and local
//     aliases
//   - parallelsafety: mutable package-level variables in simulated
//     packages (error sentinels excepted)
//
// Output is sorted by file, line and analyzer, so it is byte-identical
// regardless of scheduling (-parallel only changes wall clock, never
// bytes); per-analyzer wall-clock timings appear only in a footer after
// the deterministic report (and as timings_ms in -json). Exit status:
// 0 clean, 1 findings, 2 on a load/typecheck error.
//
// Usage:
//
//	tlbvet                  # vet the enclosing module (both tiers)
//	tlbvet -json            # machine-readable report (CI artifact)
//	tlbvet -parallel 8      # fan the tiers out over 8 workers
//	tlbvet -suppressions    # also list documented suppressions
//	tlbvet -xval FILE       # write the race cross-validation table
//	tlbvet -fabproof FILE   # write the fabric obligation proof table
//	tlbvet -only a,b        # run only the named analyzers (one typecheck)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"shootdown/internal/sanitizer/ssa"
	"shootdown/internal/sanitizer/typedlint"
	"shootdown/internal/sched"
)

// report is the -json shape; field names are part of the CI contract
// (ci.sh publishes it as VET_findings.json).
type report struct {
	Findings []typedlint.Finding `json:"findings"`
	// Suppressions are the ssa tier's marker-waived findings.
	Suppressions []ssa.Suppression `json:"suppressions"`
	// Witnesses are expected rediscoveries of config-seeded faults (the
	// lockset tier's BrokenEarlyAck cross-validation).
	Witnesses []typedlint.Finding `json:"witnesses"`
	// XVal is the race cross-validation table: one row per registry
	// entry with its static discharge status.
	XVal []ssa.XValRow `json:"xval"`
	// FabRows is the fabric obligation proof table: one row per fabproof
	// obligation with its status (proven / waived / unproven).
	FabRows []ssa.FabRow `json:"fabproof"`
	// FuncsVisited records per-analyzer whole-program coverage for the
	// ssa tier, so dashboards can spot a silently narrowed walk.
	FuncsVisited map[string]int `json:"funcs_visited"`
	// TimingsMS is per-analyzer wall-clock milliseconds across both
	// tiers. Diagnostics only: never part of the sorted report sections.
	TimingsMS map[string]float64 `json:"timings_ms"`
}

func main() {
	var (
		sups     = flag.Bool("suppressions", false, "list documented suppressions after findings")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON on stdout")
		parallel = flag.Int("parallel", 0, "worker count for fanning out the analysis tiers (0 = GOMAXPROCS)")
		xvalOut  = flag.String("xval", "", "write the race cross-validation table (RACE_XVAL) to this file")
		fabOut   = flag.String("fabproof", "", "write the fabric obligation proof table (FABPROOF) to this file")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	typedNames, ssaNames, runTyped, runSSA, err := partitionOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
		os.Exit(2)
	}

	// Both tiers share one load+typecheck, then fan out on the pool. The
	// merged report is re-sorted, so worker count never changes the bytes.
	m, err := typedlint.LoadModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
		os.Exit(2)
	}
	rep := report{
		Findings:     []typedlint.Finding{},
		Suppressions: []ssa.Suppression{},
		Witnesses:    []typedlint.Finding{},
		TimingsMS:    make(map[string]float64),
	}
	results := sched.Collect(2, func(i int) *report {
		if i == 0 {
			if !runTyped {
				return &report{}
			}
			r := typedlint.CheckModuleOnly(m, typedNames)
			return &report{Findings: r.Findings, TimingsMS: r.Timings}
		}
		if !runSSA {
			return &report{}
		}
		r := ssa.CheckModuleOnly(m, ssaNames)
		return &report{
			Findings: r.Findings, Suppressions: r.Suppressions,
			Witnesses: r.Witnesses, XVal: r.XVal, FabRows: r.FabRows,
			FuncsVisited: r.FuncsVisited, TimingsMS: r.Timings,
		}
	})
	for _, r := range results {
		rep.Findings = append(rep.Findings, r.Findings...)
		rep.Suppressions = append(rep.Suppressions, r.Suppressions...)
		rep.Witnesses = append(rep.Witnesses, r.Witnesses...)
		if r.XVal != nil {
			rep.XVal = r.XVal
		}
		if r.FabRows != nil {
			rep.FabRows = r.FabRows
		}
		if r.FuncsVisited != nil {
			rep.FuncsVisited = r.FuncsVisited
		}
		for name, ms := range r.TimingsMS {
			rep.TimingsMS[name] += ms
		}
	}
	typedlint.SortFindings(rep.Findings)
	ssa.SortSuppressions(rep.Suppressions)
	typedlint.SortFindings(rep.Witnesses)

	if *xvalOut != "" {
		if err := os.WriteFile(*xvalOut, []byte(renderXVal(rep)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
			os.Exit(2)
		}
	}
	if *fabOut != "" {
		if err := os.WriteFile(*fabOut, []byte(renderFabproof(rep)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "tlbvet: %v\n", err)
			os.Exit(2)
		}
		if len(rep.Findings) > 0 {
			os.Exit(1)
		}
		return
	}

	for _, f := range rep.Findings {
		fmt.Println(f)
	}
	for _, w := range rep.Witnesses {
		fmt.Printf("%s:%d: %s: witness: %s\n", w.File, w.Line, w.Analyzer, w.Msg)
	}
	if *sups {
		for _, s := range rep.Suppressions {
			fmt.Printf("%s:%d: %s: suppressed: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
		}
	}
	printTimings(rep.TimingsMS)
	if len(rep.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "tlbvet: %d finding(s)\n", len(rep.Findings))
		os.Exit(1)
	}
	fmt.Println("tlbvet: clean")
}

// printTimings emits the wall-clock footer, sorted by analyzer name so
// the footer shape (though not its numbers) is stable.
func printTimings(ms map[string]float64) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	total := 0.0
	for name, v := range ms {
		names = append(names, name)
		total += v
	}
	sort.Strings(names)
	fmt.Println("--- timings (wall clock, not part of the report) ---")
	for _, name := range names {
		fmt.Printf("%-16s %8.1fms\n", name, ms[name])
	}
	fmt.Printf("%-16s %8.1fms\n", "total", total)
}

// renderXVal formats the cross-validation table published as
// RACE_XVAL.txt: one row per race-registry entry. CI fails on any
// "unproven" row — a field the dynamic model instruments that the static
// tier cannot discharge.
func renderXVal(rep report) string {
	var b strings.Builder
	b.WriteString("# RACE_XVAL: static discharge status of every dynamic-race-model instrumented field\n")
	b.WriteString("# entry | variable | discipline | status | proof\n")
	for _, r := range rep.XVal {
		v := r.Var
		if v == "" {
			v = "-"
		}
		fmt.Fprintf(&b, "%s | %s | %s | %s | %s\n", r.Key, v, r.Discipline, r.Status, r.Detail)
	}
	for _, w := range rep.Witnesses {
		fmt.Fprintf(&b, "witness | %s:%d | %s\n", w.File, w.Line, w.Msg)
	}
	return b.String()
}

// renderFabproof formats the fabric obligation table published as
// FABPROOF.txt: one row per fabproof obligation. CI fails on any
// "unproven" row — a fabric invariant the numeric tier cannot discharge
// and no bounded-by-design waiver covers.
func renderFabproof(rep report) string {
	var b strings.Builder
	b.WriteString("# FABPROOF: static proof status of every async-fabric obligation\n")
	b.WriteString("# obligation | subject | status | proof\n")
	for _, r := range rep.FabRows {
		fmt.Fprintf(&b, "%s | %s | %s | %s\n", r.Key, r.Subject, r.Status, r.Detail)
	}
	for _, w := range rep.Witnesses {
		if w.Analyzer != "fabproof" {
			continue
		}
		fmt.Fprintf(&b, "witness | %s:%d | %s\n", w.File, w.Line, w.Msg)
	}
	return b.String()
}

// partitionOnly splits a comma-separated -only list between the typed and
// ssa tiers, validating every name against the registered analyzers.
func partitionOnly(only string) (typedNames, ssaNames []string, runTyped, runSSA bool, err error) {
	if strings.TrimSpace(only) == "" {
		return nil, nil, true, true, nil
	}
	inTyped := map[string]bool{}
	for _, n := range typedlint.Analyzers() {
		inTyped[n] = true
	}
	inSSA := map[string]bool{}
	for _, n := range ssa.Analyzers() {
		inSSA[n] = true
	}
	for _, raw := range strings.Split(only, ",") {
		n := strings.TrimSpace(raw)
		if n == "" {
			continue
		}
		switch {
		case inTyped[n]:
			typedNames = append(typedNames, n)
		case inSSA[n]:
			ssaNames = append(ssaNames, n)
		default:
			var known []string
			known = append(known, typedlint.Analyzers()...)
			known = append(known, ssa.Analyzers()...)
			return nil, nil, false, false,
				fmt.Errorf("-only: unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
	}
	return typedNames, ssaNames, len(typedNames) > 0, len(ssaNames) > 0, nil
}
