package ssa

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shootdown/internal/sanitizer/typedlint"
	"shootdown/internal/sched"
)

// The module is typechecked once and shared: loading is the expensive
// part, the analyzers are read-only over the loaded data.
var (
	modOnce sync.Once
	mod     *Module
	modErr  error
)

func sharedModule(t *testing.T) *Module {
	t.Helper()
	modOnce.Do(func() { mod, modErr = typedlint.LoadModule() })
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

// TestFormerLintFixturesFire holds six static properties — determinism,
// cost-model routing, map-order timing, hook purity, parallel safety and
// shared-state access — to the one analyzer that checks each: every bad
// fixture fires there with exactly the pinned count. Typed analyzers run
// through typedlint, flow-sensitive ones through this tier; the
// sharedaccess fixture is typechecked inside internal/smp so it can name
// the unexported race-instrumented fields.
func TestFormerLintFixturesFire(t *testing.T) {
	m := sharedModule(t)
	const typedData = "../typedlint/testdata/"
	cases := []struct {
		name, file, host, analyzer string
		want                       int
		// lines, when set, pins the finding lines.
		lines []int
	}{
		{"determinism", typedData + "bad_determinism.go", "", "determinism", 2, nil},
		{"determinism_alias", typedData + "bad_determinism_alias.go", "", "determinism", 3, nil},
		{"costliteral", typedData + "bad_costliteral.go", "", "costliteral", 1, []int{7}},
		{"maporder", "testdata/bad_maporder.go", "", "detflow", 2, []int{16, 21}},
		{"observerpurity", typedData + "bad_hookwrites.go", "", "observerpurity", 4, []int{28, 29, 34, 46}},
		{"parallelsafety", typedData + "bad_parallelsafety.go", "", "parallelsafety", 6, nil},
		{"sharedaccess", "testdata/bad_sharedaccess.go", modPath + "/internal/smp", "lockset", 3, []int{12, 13, 15}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var fs []Finding
			if strings.HasPrefix(c.file, typedData) {
				res, err := typedlint.CheckFixture(m, c.file)
				if err != nil {
					t.Fatal(err)
				}
				fs = res.Findings
			} else {
				res, err := CheckFixtureIn(m, c.file, c.host)
				if err != nil {
					t.Fatal(err)
				}
				fs = res.Findings
			}
			var lines []int
			for _, f := range fs {
				if f.Analyzer == c.analyzer {
					lines = append(lines, f.Line)
				}
			}
			if len(lines) != c.want {
				t.Fatalf("%s findings = %d, want %d: %v", c.analyzer, len(lines), c.want, fs)
			}
			if c.lines != nil && fmt.Sprint(lines) != fmt.Sprint(c.lines) {
				t.Fatalf("%s finding lines = %v, want %v: %v", c.analyzer, lines, c.lines, fs)
			}
		})
	}
}

func TestFlushObligationFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_flushobligation.go")
	if got := countBy(res.Findings, "flushobligation"); got != 1 {
		t.Fatalf("flushobligation findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "as.Unmap") {
		t.Fatalf("finding should name the creating call: %v", res.Findings[0])
	}
}

func TestFlushObligationGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_flushobligation.go")
	if len(res.Findings) != 0 {
		t.Fatalf("good fixture should be clean, got %v", res.Findings)
	}
	if len(res.Suppressions) != 1 {
		t.Fatalf("suppressions = %d, want exactly 1 (the marker): %v", len(res.Suppressions), res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Analyzer != "flushobligation" || !strings.Contains(s.Reason, "full-flushes") {
		t.Fatalf("unexpected suppression: %+v", s)
	}
}

func TestLockOrderFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_lockorder.go")
	if got := countBy(res.Findings, "lockorder"); got != 1 {
		t.Fatalf("lockorder findings = %d, want exactly 1: %v", got, res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "cycle") || !strings.Contains(f.Msg, "twoLocks.a") || !strings.Contains(f.Msg, "twoLocks.b") {
		t.Fatalf("cycle finding should name both lock classes: %v", f)
	}
}

func TestIPIStateWaitWithoutKickFires(t *testing.T) {
	res := checkFixture(t, "bad_ipistate.go")
	if got := countBy(res.Findings, "ipistate"); got != 1 {
		t.Fatalf("ipistate findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "wait before kick") {
		t.Fatalf("finding should name the skipped DFA edge: %v", res.Findings[0])
	}
}

func TestIPIStateDoubleDischargeFires(t *testing.T) {
	res := checkFixture(t, "bad_ipistate_double.go")
	if got := countBy(res.Findings, "ipistate"); got != 1 {
		t.Fatalf("ipistate findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "double discharge") {
		t.Fatalf("finding should name the repeated discharge: %v", res.Findings[0])
	}
}

func TestIPIStateGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_ipistate.go")
	if len(res.Findings) != 0 {
		t.Fatalf("lifecycle fixture should be clean (kick+wait, recovery ladder, both transfer edges), got %v", res.Findings)
	}
}

func TestDetFlowDigestFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_detflow.go")
	if got := countBy(res.Findings, "detflow"); got != 1 {
		t.Fatalf("detflow findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "StateDigest") || !strings.Contains(f.Msg, "wall clock") {
		t.Fatalf("finding should name the digest sink and the clock source: %v", f)
	}
}

func TestDetFlowGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_detflow.go")
	if len(res.Findings) != 0 {
		t.Fatalf("sorted-iteration fixture should be clean, got %v", res.Findings)
	}
}

func TestLocksetUnprovenAckFires(t *testing.T) {
	res := checkFixture(t, "bad_lockset.go")
	if got := countBy(res.Findings, "lockset"); got != 1 {
		t.Fatalf("lockset findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "mm.pt-nodes") || !strings.Contains(f.Msg, "FreedTables") {
		t.Fatalf("finding should name the ack-ordered entry and its guard: %v", f)
	}
}

func TestLocksetGoodFixtureClean(t *testing.T) {
	res := checkFixture(t, "good_lockset.go")
	if len(res.Findings) != 0 {
		t.Fatalf("guarded fixture should be clean, got %v", res.Findings)
	}
	if len(res.Suppressions) != 1 {
		t.Fatalf("suppressions = %d, want exactly 1 (the waiver): %v", len(res.Suppressions), res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Analyzer != "lockset" || !strings.Contains(s.Reason, "scratch") {
		t.Fatalf("unexpected suppression: %+v", s)
	}
}

func TestMHPBlockingFixtureFires(t *testing.T) {
	res := checkFixture(t, "bad_mhp.go")
	if got := countBy(res.Findings, "mhp"); got != 1 {
		t.Fatalf("mhp findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	f := res.Findings[0]
	if !strings.Contains(f.Msg, "DownRead") || !strings.Contains(f.Msg, "IPI-handler") {
		t.Fatalf("finding should name the blocking primitive and the context: %v", f)
	}
}

func TestStaleLockMarkerFires(t *testing.T) {
	res := checkFixture(t, "bad_lockmarker.go")
	if got := countBy(res.Findings, "stalemarker"); got != 1 {
		t.Fatalf("stalemarker findings = %d, want exactly 1: %v", got, res.Findings)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("total findings = %d, want 1: %v", len(res.Findings), res.Findings)
	}
	if !strings.Contains(res.Findings[0].Msg, "lock-free-by-design") {
		t.Fatalf("finding should name the marker vocabulary: %v", res.Findings[0])
	}
}

// TestLocksetBrokenEarlyAckWitness is the cross-validation contract: on
// the clean module the lockset prover must rediscover the config-seeded
// BrokenEarlyAck violation — as exactly one witness, on the same field
// the dynamic race model blames (mm.pt-nodes), at the forced early-ack
// assignment in core's Flusher — while producing zero findings.
func TestLocksetBrokenEarlyAckWitness(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.Findings) != 0 {
		t.Fatalf("module should be clean, got %v", res.Findings)
	}
	var lockWits []Finding
	for _, w := range res.Witnesses {
		if w.Analyzer == "lockset" {
			lockWits = append(lockWits, w)
		}
	}
	if len(lockWits) != 1 {
		t.Fatalf("lockset witnesses = %d, want exactly 1 (the seeded BrokenEarlyAck site): %v", len(lockWits), res.Witnesses)
	}
	w := lockWits[0]
	if !strings.Contains(w.File, "internal/core/flusher.go") {
		t.Fatalf("witness should sit in the Flusher: %v", w)
	}
	for _, want := range []string{"mm.pt-nodes", "BrokenEarlyAck", "FreedTables"} {
		if !strings.Contains(w.Msg, want) {
			t.Fatalf("witness message should mention %q: %v", want, w)
		}
	}
}

// TestXValAllProven asserts every race-registry entry is statically
// discharged on the clean tree — the rows CI publishes as RACE_XVAL.txt.
func TestXValAllProven(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.XVal) == 0 {
		t.Fatal("expected one XVal row per registry entry, got none")
	}
	for i, r := range res.XVal {
		if r.Status != "proven" {
			t.Errorf("entry %s: status = %q, want proven (%s)", r.Key, r.Status, r.Detail)
		}
		if i > 0 && res.XVal[i-1].Key >= r.Key {
			t.Errorf("XVal rows out of order: %s before %s", res.XVal[i-1].Key, r.Key)
		}
	}
}

// TestRepoIsCleanWithoutWaivers is the tier's bar: the whole tree passes
// every ssa analyzer with zero findings AND zero suppressions.
func TestRepoIsCleanWithoutWaivers(t *testing.T) {
	res := CheckModule(sharedModule(t))
	if len(res.Findings) != 0 {
		t.Fatalf("repository should be clean, got %d finding(s):\n%v", len(res.Findings), res.Findings)
	}
	if len(res.Suppressions) != 0 {
		t.Fatalf("repository should need no suppression markers, got %v", res.Suppressions)
	}
}

// TestRepoIsClean is the live invariant tlbvet enforces: the repository
// passes every analyzer of both tiers with zero findings, and each of the
// six static properties of TestFormerLintFixturesFire is still checked by
// a registered analyzer, so a dropped analyzer cannot pass as "clean".
func TestRepoIsClean(t *testing.T) {
	m := sharedModule(t)
	registered := map[string]bool{}
	for _, n := range append(typedlint.Analyzers(), Analyzers()...) {
		registered[n] = true
	}
	for _, want := range []string{"determinism", "costliteral", "detflow", "observerpurity", "parallelsafety", "lockset"} {
		if !registered[want] {
			t.Errorf("analyzer %s is not registered in either tier (have %v)", want, registered)
		}
	}
	fs := append(typedlint.CheckModule(m).Findings, CheckModule(m).Findings...)
	for _, f := range fs {
		t.Error(f)
	}
}

// TestWholeProgramCoverageFloor asserts the interprocedural analyzers
// visited at least every function the typedlint tier sees — a silently
// narrowed walk (a lost package, an early bail) cannot pass as "clean".
func TestWholeProgramCoverageFloor(t *testing.T) {
	m := sharedModule(t)
	floor := typedlint.CheckModule(m).FuncsVisited
	if floor == 0 {
		t.Fatal("typedlint visited 0 functions — the floor itself is broken")
	}
	res := CheckModule(m)
	for _, an := range []string{"ipistate", "detflow", "mhp", "lockset", "fabproof"} {
		if got := res.FuncsVisited[an]; got < floor {
			t.Fatalf("%s visited %d functions, below the typedlint floor %d", an, got, floor)
		}
	}
}

// renderReport formats a Result exactly like cmd/tlbvet prints it.
func renderReport(res *Result) string {
	var b strings.Builder
	for _, f := range res.Findings {
		fmt.Fprintln(&b, f.String())
	}
	for _, w := range res.Witnesses {
		fmt.Fprintf(&b, "%s:%d: %s: witness: %s\n", w.File, w.Line, w.Analyzer, w.Msg)
	}
	for _, s := range res.Suppressions {
		fmt.Fprintf(&b, "%s:%d: %s: suppressed: %s\n", s.File, s.Line, s.Analyzer, s.Reason)
	}
	for _, r := range res.FabRows {
		fmt.Fprintf(&b, "%s | %s | %s | %s\n", r.Key, r.Subject, r.Status, r.Detail)
	}
	return b.String()
}

// TestVetOutputParallelGolden is the golden scheduling test: the combined
// two-tier report (typedlint + ssa, fanned out on the sched pool exactly
// like cmd/tlbvet -parallel) is byte-identical at 1 worker and 8 workers.
func TestVetOutputParallelGolden(t *testing.T) {
	m := sharedModule(t)
	fp1, err := m.LoadFixture(filepath.Join("testdata", "bad_ipistate.go"))
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := m.LoadFixture(filepath.Join("testdata", "bad_detflow.go"))
	if err != nil {
		t.Fatal(err)
	}
	fp3, err := m.LoadFixture(filepath.Join("testdata", "bad_fabproof.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append(append([]*Package{}, m.Pkgs...), fp1, fp2, fp3)

	report := func() string {
		outs := sched.Collect(2, func(i int) string {
			if i == 0 {
				tr := typedlint.CheckModule(m)
				var b strings.Builder
				for _, f := range tr.Findings {
					fmt.Fprintln(&b, f.String())
				}
				return b.String()
			}
			return renderReport(run(m, pkgs, nil, nil))
		})
		return strings.Join(outs, "")
	}

	prev := sched.SetWorkers(1)
	defer sched.SetWorkers(prev)
	one := report()
	sched.SetWorkers(8)
	eight := report()

	if one == "" {
		t.Fatal("expected findings from the loaded fixtures")
	}
	if one != eight {
		t.Fatalf("-parallel 1 and -parallel 8 reports differ:\n%s\nvs:\n%s", one, eight)
	}
}
