package typedlint

import "strings"

// The scope predicates below decide which module-relative files each
// scoped analyzer checks. Sanitizer testdata fixtures opt into every
// scope regardless of directory, so firing tests can live under testdata.

// costScope lists the machine-model directories where every cycle cost
// must come from the cost model, never a literal.
var costScope = []string{
	"internal/apic/", "internal/cache/", "internal/core/", "internal/daemons/",
	"internal/kernel/", "internal/mm/", "internal/smp/", "internal/syscalls/",
	"internal/tlb/",
}

// simulatedScope lists the simulated packages: the state of one booted
// world. internal/sched runs worlds concurrently, so nothing in these
// packages may be shared between worlds (parallelsafety), and nothing
// nondeterministic may flow into them (the ssa tier's detflow).
var simulatedScope = []string{
	"internal/apic/", "internal/cache/", "internal/core/",
	"internal/daemons/", "internal/fault/", "internal/kernel/",
	"internal/mach/", "internal/mm/", "internal/pagetable/",
	"internal/sim/", "internal/smp/", "internal/stats/",
	"internal/syscalls/", "internal/tlb/", "internal/virt/",
	"internal/workload/",
}

// inFixture reports whether a module-relative file path is a sanitizer
// testdata fixture.
func inFixture(rel string) bool {
	return strings.Contains(rel, "sanitizer/typedlint/testdata/") ||
		strings.Contains(rel, "sanitizer/ssa/testdata/")
}

// inCostScope reports whether rel must route every cycle cost through the
// cost model (internal/mach/costs.go).
func inCostScope(rel string) bool {
	return inFixture(rel) || hasAnyPrefix(rel, costScope)
}

// InSimulatedScope reports whether rel lies inside a simulated package.
func InSimulatedScope(rel string) bool {
	return inFixture(rel) || hasAnyPrefix(rel, simulatedScope)
}

// inDeterminismScope reports whether rel's imports are subject to the
// determinism ban. The static-analysis toolchain itself is exempt — the
// analyzers time their own wall-clock for the CI budget attribution and
// never run inside a simulation — but its testdata fixtures stay in
// scope, because fixtures exist to prove the ban fires.
func inDeterminismScope(rel string) bool {
	return !strings.HasPrefix(rel, "internal/sanitizer/") || strings.Contains(rel, "/testdata/")
}

func hasAnyPrefix(rel string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}
