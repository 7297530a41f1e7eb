package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name, fakeRel string) []Finding {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CheckSource(fakeRel, src)
	if err != nil {
		t.Fatal(err)
	}
	return fs
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

func TestDeterminismAnalyzerFires(t *testing.T) {
	fs := loadFixture(t, "bad_determinism.go", "internal/workload/fixture.go")
	if got := countBy(fs, "determinism"); got != 2 {
		t.Fatalf("determinism findings = %d, want 2 (time + math/rand): %v", got, fs)
	}
}

func TestDeterminismCatchesDisguisedImports(t *testing.T) {
	// Aliased, dot and blank imports of banned packages all fire: the
	// analyzer keys on the import path, not the name the file binds.
	fs := loadFixture(t, "bad_determinism_alias.go", "internal/workload/fixture.go")
	if got := countBy(fs, "determinism"); got != 3 {
		t.Fatalf("determinism findings = %d, want 3 (dot rand, blank rand/v2, aliased time): %v", got, fs)
	}
}

func TestCostLiteralAnalyzerFires(t *testing.T) {
	fs := loadFixture(t, "bad_costliteral.go", "internal/kernel/fixture.go")
	if got := countBy(fs, "costliteral"); got != 1 {
		t.Fatalf("costliteral findings = %d, want 1: %v", got, fs)
	}
	if fs[0].Line != 9 {
		t.Fatalf("finding at line %d, want 9: %v", fs[0].Line, fs[0])
	}
}

func TestCostLiteralScopedToMachineModel(t *testing.T) {
	// The same source outside the machine-model dirs is not flagged:
	// workload scripts and cmd tools may use scenario-level literals.
	fs := loadFixture(t, "bad_costliteral.go", "cmd/tlbfuzz/fixture.go")
	if got := countBy(fs, "costliteral"); got != 0 {
		t.Fatalf("costliteral fired outside scope: %v", fs)
	}
}

func TestMapOrderAnalyzerFires(t *testing.T) {
	fs := loadFixture(t, "bad_maporder.go", "internal/core/fixture.go")
	if got := countBy(fs, "maporder"); got != 2 {
		t.Fatalf("maporder findings = %d, want 2 (field map + local map): %v", got, fs)
	}
}

func TestObserverPurityAnalyzerFires(t *testing.T) {
	fs := loadFixture(t, "bad_observerpurity.go", "internal/experiments/fixture.go")
	if got := countBy(fs, "observerpurity"); got != 4 {
		t.Fatalf("observerpurity findings = %d, want 4 (2 param writes, 1 global, 1 boot hook): %v", got, fs)
	}
}

func TestSharedAccessAnalyzerFires(t *testing.T) {
	// Outside every owner dir all five selector uses are flagged.
	fs := loadFixture(t, "bad_sharedaccess.go", "internal/core/fixture.go")
	if got := countBy(fs, "sharedaccess"); got != 4 {
		t.Fatalf("sharedaccess findings = %d, want 4: %v", got, fs)
	}
	// Inside the owning package the accessor function is exempt.
	fs = loadFixture(t, "bad_sharedaccess.go", "internal/kernel/fixture.go")
	if got := countBy(fs, "sharedaccess"); got != 3 {
		t.Fatalf("sharedaccess findings in owner dir = %d, want 3 (Lazy exempt): %v", got, fs)
	}
}

func TestParallelSafetyAnalyzerFires(t *testing.T) {
	fs := loadFixture(t, "bad_parallelsafety.go", "internal/kernel/fixture.go")
	if got := countBy(fs, "parallelsafety"); got != 6 {
		t.Fatalf("parallelsafety findings = %d, want 6 (flushCount, lastWorld, bootSeq, hook, mode, tick): %v", got, fs)
	}
}

func TestParallelSafetyScopedToSimulatedPackages(t *testing.T) {
	// The harness (cmd tools, internal/sched, internal/experiments) may
	// hold package-level state — only simulated packages are restricted.
	fs := loadFixture(t, "bad_parallelsafety.go", "internal/sched/fixture.go")
	if got := countBy(fs, "parallelsafety"); got != 0 {
		t.Fatalf("parallelsafety fired outside scope: %v", fs)
	}
}

// TestRepoIsClean is the live invariant: the repository itself must pass
// every analyzer (this is what CI runs via tlbcheck -lint).
func TestRepoIsClean(t *testing.T) {
	fs, err := CheckTree("../../../...")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		for _, f := range fs {
			t.Error(f)
		}
	}
}

// TestCheckTreeCoverage pins the walk's actual reach: the module pattern
// must descend into cmd/ and examples/ (tools and example programs carry
// the same invariants), and the scanned-file count must clear a floor so
// a silently narrowed walk cannot pass as "clean".
func TestCheckTreeCoverage(t *testing.T) {
	_, stats, err := CheckTreeStats("../../../...")
	if err != nil {
		t.Fatal(err)
	}
	// The repo has >75 non-test Go files today; the floor leaves headroom
	// for deletions while catching a walk that lost whole subtrees.
	const floor = 60
	if len(stats.Files) <= floor {
		t.Fatalf("scanned %d files, want > %d — the tree walk lost coverage", len(stats.Files), floor)
	}
	prefixes := map[string]bool{}
	for _, f := range stats.Files {
		if i := strings.IndexByte(f, '/'); i > 0 {
			prefixes[f[:i]] = true
		}
	}
	for _, want := range []string{"cmd", "examples", "internal"} {
		if !prefixes[want] {
			t.Fatalf("no files scanned under %s/ (got prefixes %v)", want, prefixes)
		}
	}
}
