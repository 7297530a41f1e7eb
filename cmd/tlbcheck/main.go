// Command tlbcheck is the repository's coherence and invariant checker.
//
// In its default mode it runs the paper's experiment suite with the
// shadow-oracle TLB coherence sanitizer attached to every simulated
// machine (see internal/sanitizer): every restrictive page-table change
// must be covered by a shootdown before any CPU translates through the
// stale entry, every IPI must be acknowledged, early acks are forbidden
// on table-freeing flushes, and mm lock ordering must stay acyclic. It
// exits non-zero on any violation.
//
// With -race-model it runs the suite with the happens-before race
// detector attached instead (see internal/race): every access to shared
// simulated kernel state must be ordered by a modeled synchronization
// edge (locks, IPI send/ack, context switches), or it is reported as a
// data race in the protocol model.
//
// With -lint it instead runs the repo-invariant static analyzers
// (internal/sanitizer/lint): no wall-clock or global-PRNG use, no literal
// cycle costs outside the cost model, no time charged inside map
// iteration, observational hooks stay pure, and race-instrumented shared
// state is only touched through its accessors.
//
// With -vet it runs both type-checked analysis tiers (the same engines as
// cmd/tlbvet): internal/sanitizer/typedlint — named-constant cycle costs,
// disguised banned imports, hooks that mutate observed state — and
// internal/sanitizer/ssa — undischarged flush obligations, static
// lock-order cycles, the ipistate shootdown-lifecycle DFA, the detflow
// nondeterminism-taint proof, the concurrency-proof pair (mhp
// may-happen-in-parallel contexts plus lockset discharge proofs for every
// race-instrumented field), and the fabproof numeric tier
// (abstract-interpretation proofs of the async fabric's ring bounds,
// counter monotonicity and coalescing soundness), all interprocedural over
// an SSA IR.
//
// Usage:
//
//	tlbcheck                     # sanitize the full experiment suite
//	tlbcheck -quick              # CI-sized runs
//	tlbcheck -run fig6,table3    # specific experiments
//	tlbcheck -race-model         # happens-before race check of the suite
//	tlbcheck -faults light       # sanitize under an injected fault schedule
//	tlbcheck -lint ./...         # syntactic static analyzers only
//	tlbcheck -vet                # typed static analyzers only
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"shootdown/internal/experiments"
	"shootdown/internal/race"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sanitizer/lint"
	"shootdown/internal/sanitizer/ssa"
	"shootdown/internal/sanitizer/typedlint"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

func main() {
	var (
		doLint    = flag.Bool("lint", false, "run the syntactic static analyzers instead of the sanitized simulation")
		doVet     = flag.Bool("vet", false, "run the type-checked static analyzers instead of the sanitized simulation")
		raceModel = flag.Bool("race-model", false, "run the happens-before race detector instead of the sanitizer")
		quick     = flag.Bool("quick", false, "shrink experiment iteration counts (CI size)")
		run       = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		seed      = flag.Uint64("seed", 1, "deterministic simulation seed")
		verbose   = flag.Bool("v", false, "print per-experiment progress")
		parallel  = flag.Int("parallel", 0, "experiment-cell worker count (0 = GOMAXPROCS); reports are identical at any setting")
		faults    = flag.String("faults", "none", "fault schedule for every simulated machine: a preset (none, light, heavy, drop, broken) and/or key=p[:max] overrides, e.g. 'light,drop=0.3'")
		tlbmode   = flag.String("tlbmode", "", "shootdown dispatch tier override for every cell: sync or async (default: as each experiment configures)")
	)
	flag.Parse()
	sched.SetWorkers(*parallel)

	env, err := workload.ParseEnv(*faults, *tlbmode, "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
		os.Exit(2)
	}

	if *doLint {
		os.Exit(runLint(flag.Args()))
	}
	if *doVet {
		os.Exit(runVet())
	}
	if *raceModel {
		os.Exit(runRaceModel(*run, *quick, *seed, *verbose, env))
	}
	os.Exit(runSanitized(*run, *quick, *seed, *verbose, env))
}

func runVet() int {
	// Both static tiers share one load+typecheck and fan out on the sched
	// pool; the merged report is re-sorted so -parallel never changes it.
	m, err := typedlint.LoadModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
		return 2
	}
	var findings []lint.Finding
	for _, fs := range sched.Collect(2, func(i int) []lint.Finding {
		if i == 0 {
			return typedlint.CheckModule(m).Findings
		}
		return ssa.CheckModule(m).Findings
	}) {
		findings = append(findings, fs...)
	}
	typedlint.SortFindings(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tlbcheck: %d vet finding(s)\n", len(findings))
		return 1
	}
	fmt.Println("tlbcheck: vet clean")
	return 0
}

func runLint(patterns []string) int {
	findings, err := lint.CheckTree(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "tlbcheck: %d lint finding(s)\n", len(findings))
		return 1
	}
	fmt.Println("tlbcheck: lint clean")
	return 0
}

func runSanitized(run string, quick bool, seed uint64, verbose bool, env workload.Env) int {
	names := experiments.Names()
	if !strings.EqualFold(run, "all") {
		names = strings.Split(run, ",")
	}
	opts := experiments.Options{Quick: quick, Seed: seed, Env: env}
	summaries := make([]*sanitizer.Summary, 0, len(names))
	total := &sanitizer.Summary{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if verbose {
			fmt.Fprintf(os.Stderr, "checking %s...\n", name)
		}
		_, sum, err := experiments.Run(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
			return 2
		}
		summaries = append(summaries, sum)
		if verbose && !sum.OK() {
			fmt.Fprintf(os.Stderr, "  %s: %d violation(s)\n", name, len(sum.Violations))
		}
	}
	for _, s := range summaries {
		total.Worlds += s.Worlds
		total.Violations = append(total.Violations, s.Violations...)
		total.Dropped += s.Dropped
		total.Stats.Add(s.Stats)
	}
	fmt.Print(total.Report())
	if !total.OK() {
		return 1
	}
	return 0
}

func runRaceModel(run string, quick bool, seed uint64, verbose bool, env workload.Env) int {
	names := experiments.Names()
	if !strings.EqualFold(run, "all") {
		names = strings.Split(run, ",")
	}
	opts := experiments.Options{Quick: quick, Seed: seed, Env: env}
	total := &race.Summary{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if verbose {
			fmt.Fprintf(os.Stderr, "race-checking %s...\n", name)
		}
		_, sum, err := experiments.RunRace(name, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlbcheck: %v\n", err)
			return 2
		}
		if verbose && !sum.OK() {
			fmt.Fprintf(os.Stderr, "  %s: %d race(s)\n", name, len(sum.Races))
		}
		total.Absorb(sum)
	}
	fmt.Print(total.Report())
	if !total.OK() {
		return 1
	}
	return 0
}
