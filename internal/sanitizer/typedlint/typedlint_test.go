package typedlint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shootdown/internal/sanitizer/lint"
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

func countBy(fs []lint.Finding, analyzer string) int {
	n := 0
	for _, f := range fs {
		if f.Analyzer == analyzer {
			n++
		}
	}
	return n
}

func TestCostConstTypedCatchesWhatSyntacticMisses(t *testing.T) {
	res := checkFixture(t, "bad_costconst.go")
	if got := countBy(res.Findings, "costliteral"); got != 2 {
		t.Fatalf("typed costliteral findings = %d, want exactly 2 (direct + wrapper): %v", got, res.Findings)
	}

	src, err := os.ReadFile(filepath.Join("testdata", "bad_costconst.go"))
	if err != nil {
		t.Fatal(err)
	}
	// The fake path puts the file in the syntactic analyzer's cost scope.
	syn, err := lint.CheckSource("internal/mm/bad_costconst.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := 0; countBy(syn, "costliteral") != got {
		t.Fatalf("syntactic costliteral findings = %d, want 0 (the tier delta this fixture proves)", countBy(syn, "costliteral"))
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
	for _, s := range res.Suppressions {
		fmt.Fprintf(&b, "%s:%d: %s: suppressed: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
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
			out[i] = renderReport(run(m, pkgs, fp, nil))
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
	res := run(m, pkgs, fp, nil)
	for i := 1; i < len(res.Findings); i++ {
		a, b := res.Findings[i-1], res.Findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Analyzer > b.Analyzer) {
			t.Fatalf("findings out of order at %d: %v before %v", i, a, b)
		}
	}
}
