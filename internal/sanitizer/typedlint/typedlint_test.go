package typedlint

import (
	"fmt"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The module is typechecked once and shared: loading is the expensive
// part (the GOROOT source importer typechecks stdlib dependencies), the
// analyzers themselves are cheap and read-only over the loaded data.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func sharedModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = LoadModule() })
	if modErr != nil {
		t.Fatalf("LoadModule: %v", modErr)
	}
	return mod
}

func checkFixture(t *testing.T, name string) *Result {
	t.Helper()
	res, err := CheckFixture(sharedModule(t), filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("CheckFixture(%s): %v", name, err)
	}
	return res
}

func countBy(fs []Finding, analyzer string) int {
	n := 0
	for _, f := range fs {
		if f.Analyzer == analyzer {
			n++
		}
	}
	return n
}

// TestCostConstTypedCatchesWhatSyntacticMisses: no integer literal
// appears at a Delay call in the fixture, so only constant folding and the
// cost-like-parameter fixpoint can see its two costs.
func TestCostConstTypedCatchesWhatSyntacticMisses(t *testing.T) {
	res := checkFixture(t, "bad_costconst.go")
	if got := countBy(res.Findings, "costliteral"); got != 2 {
		t.Fatalf("costliteral findings = %d, want exactly 2 (direct + wrapper): %v", got, res.Findings)
	}
}

func TestDeterminismTypedCatchesDisguisedImports(t *testing.T) {
	res := checkFixture(t, "bad_determinism_alias.go")
	if got := countBy(res.Findings, "determinism"); got != 3 {
		t.Fatalf("determinism findings = %d, want 3 (aliased, blank, dot): %v", got, res.Findings)
	}
	all := fmt.Sprint(res.Findings)
	for _, form := range []string{"aliased import", "blank import", "dot-import"} {
		if !strings.Contains(all, form) {
			t.Fatalf("missing %q finding in %v", form, res.Findings)
		}
	}
}

func TestObserverPurityTypedFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_observerpurity.go")
	if got := countBy(res.Findings, "observerpurity"); got != 2 {
		t.Fatalf("observerpurity findings = %d, want 2 (direct write + mutating method via alias): %v", got, res.Findings)
	}
	all := fmt.Sprint(res.Findings)
	if !strings.Contains(all, "NoteContention") {
		t.Fatalf("the method-call finding should name NoteContention: %v", res.Findings)
	}
}

// TestObserverPurityBootHookExemption: a hook on workload.Env.BootHook
// may call mutating methods (k.EnableRace, f.EnableRace attach the race
// detector), whether it is assigned or set in an Env literal; a write
// through its parameter still fires, exactly once.
func TestObserverPurityBootHookExemption(t *testing.T) {
	res := checkFixture(t, "bad_boothook.go")
	if got := countBy(res.Findings, "observerpurity"); got != 1 {
		t.Fatalf("observerpurity findings = %d, want 1 (the w.Fault write): %v", got, res.Findings)
	}
	if all := fmt.Sprint(res.Findings); !strings.Contains(all, "write through hook parameter") {
		t.Fatalf("the finding should be the parameter write: %v", res.Findings)
	}
}

// TestRepoIsVetClean is the other half of every fixture pair: the typed
// analyzers report nothing on the repository itself.
func TestRepoIsVetClean(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.Findings) != 0 {
		t.Fatalf("repository should be vet-clean, got %d finding(s):\n%v", len(res.Findings), res.Findings)
	}
}

// renderReport formats a Result exactly like cmd/tlbvet prints it.
func renderReport(res *Result) string {
	var b strings.Builder
	for _, f := range res.Findings {
		fmt.Fprintln(&b, f.String())
	}
	return b.String()
}

// TestVetOutputOrderedAndParallelStable is the golden ordering test: the
// report is sorted by file, line, analyzer, and two concurrent runs over
// the same loaded module produce byte-identical output. The analyses are
// read-only over the typechecked data, so scheduling cannot reorder them.
func TestVetOutputOrderedAndParallelStable(t *testing.T) {
	m := sharedModule(t)
	fp, err := m.LoadFixture(filepath.Join("testdata", "bad_determinism_alias.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)

	const runs = 4
	out := make([]string, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = renderReport(run(m, pkgs, fp.FileNames, nil))
		}(i)
	}
	wg.Wait()

	if out[0] == "" {
		t.Fatal("expected non-empty report from the determinism fixture")
	}
	for i := 1; i < runs; i++ {
		if out[i] != out[0] {
			t.Fatalf("run %d output differs:\n%s\nvs:\n%s", i, out[i], out[0])
		}
	}
	// Sortedness: file, then line, then analyzer.
	res := run(m, pkgs, fp.FileNames, nil)
	for i := 1; i < len(res.Findings); i++ {
		a, b := res.Findings[i-1], res.Findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Analyzer > b.Analyzer) {
			t.Fatalf("findings out of order at %d: %v before %v", i, a, b)
		}
	}
}

// TestScopePredicates pins which files each scoped analyzer checks.
func TestScopePredicates(t *testing.T) {
	cases := []struct {
		rel                      string
		cost, determinism, simul bool
	}{
		{"internal/kernel/cpu.go", true, true, true},
		{"internal/mach/costs.go", false, true, true},
		{"internal/workload/world.go", false, true, true},
		// Tools and example programs may use scenario-level literals.
		{"cmd/tlbfuzz/main.go", false, true, false},
		{"examples/quickstart/main.go", false, true, false},
		// The harness may hold package-level state; only simulated
		// packages are restricted.
		{"internal/sched/sched.go", false, true, false},
		{"internal/experiments/experiments.go", false, true, false},
		// The analyzers time themselves; their fixtures stay in scope.
		{"internal/sanitizer/ssa/ssa.go", false, false, false},
		{"internal/sanitizer/sanitizer.go", false, false, false},
		{"internal/sanitizer/typedlint/testdata/bad_determinism.go", true, true, true},
		{"internal/sanitizer/ssa/testdata/bad_detflow.go", true, true, true},
	}
	for _, c := range cases {
		if got := inCostScope(c.rel); got != c.cost {
			t.Errorf("inCostScope(%q) = %v, want %v", c.rel, got, c.cost)
		}
		if got := inDeterminismScope(c.rel); got != c.determinism {
			t.Errorf("inDeterminismScope(%q) = %v, want %v", c.rel, got, c.determinism)
		}
		if got := InSimulatedScope(c.rel); got != c.simul {
			t.Errorf("InSimulatedScope(%q) = %v, want %v", c.rel, got, c.simul)
		}
	}
}

// checkFixtureAt typechecks a testdata fixture but files it under rel, a
// module-relative path, so the scope predicates see it where rel lives.
func checkFixtureAt(t *testing.T, name, rel string) *Result {
	t.Helper()
	m := sharedModule(t)
	fp, err := m.LoadFixture(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("LoadFixture(%s): %v", name, err)
	}
	fp.Dir, fp.FileNames = path.Dir(rel), []string{rel}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp)
	return run(m, pkgs, fp.FileNames, nil)
}

// TestCostLiteralScopedToMachineModel: the same source that fires inside
// a machine-model dir is not flagged outside it — workload scripts and
// cmd tools may use scenario-level literals.
func TestCostLiteralScopedToMachineModel(t *testing.T) {
	res := checkFixtureAt(t, "bad_costliteral.go", "internal/kernel/fixture.go")
	if got := countBy(res.Findings, "costliteral"); got != 1 {
		t.Fatalf("costliteral findings in internal/kernel = %d, want 1: %v", got, res.Findings)
	}
	res = checkFixtureAt(t, "bad_costliteral.go", "cmd/tlbfuzz/fixture.go")
	if got := countBy(res.Findings, "costliteral"); got != 0 {
		t.Fatalf("costliteral fired outside scope: %v", res.Findings)
	}
}

// TestParallelSafetyScopedToSimulatedPackages: the harness (cmd tools,
// internal/sched, internal/experiments) may hold package-level state —
// only simulated packages are restricted.
func TestParallelSafetyScopedToSimulatedPackages(t *testing.T) {
	res := checkFixtureAt(t, "bad_parallelsafety.go", "internal/kernel/fixture.go")
	if got := countBy(res.Findings, "parallelsafety"); got != 6 {
		t.Fatalf("parallelsafety findings in internal/kernel = %d, want 6: %v", got, res.Findings)
	}
	res = checkFixtureAt(t, "bad_parallelsafety.go", "internal/sched/fixture.go")
	if got := countBy(res.Findings, "parallelsafety"); got != 0 {
		t.Fatalf("parallelsafety fired outside scope: %v", res.Findings)
	}
}

// TestLoadModuleCoverage pins the loader's actual reach: packages must
// load from under cmd/, examples/ and internal/ (tools and example
// programs carry the same invariants), and the file count must clear a
// floor so a silently narrowed walk cannot pass as "clean".
func TestLoadModuleCoverage(t *testing.T) {
	m := sharedModule(t)
	// The module has >90 non-test Go files today; the floor leaves
	// headroom for deletions while catching a walk that lost subtrees.
	const floor = 60
	files := 0
	prefixes := map[string]bool{}
	for _, p := range m.Pkgs {
		files += len(p.FileNames)
		if i := strings.IndexByte(p.Dir, '/'); i > 0 {
			prefixes[p.Dir[:i]] = true
		}
	}
	if files <= floor {
		t.Fatalf("loaded %d files, want > %d — the module walk lost coverage", files, floor)
	}
	for _, want := range []string{"cmd", "examples", "internal"} {
		if !prefixes[want] {
			t.Fatalf("no package loaded under %s/ (got prefixes %v)", want, prefixes)
		}
	}
}
