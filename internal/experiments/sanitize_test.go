package experiments

import (
	"testing"

	"shootdown/internal/workload"
)

// TestSanitizedQuickSuite runs every registered experiment under the
// shadow-oracle checker: the seed experiment suite must be coherent — zero
// stale translations, no unacked IPIs, no lock inversions. This is the
// in-tree version of the CI gate `tlbcheck -quick`.
func TestSanitizedQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("sanitized suite is not short")
	}
	var totalHits, totalWindows uint64
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, sum, err := Run(name, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			if sum == nil {
				t.Fatal("Run returned no summary")
			}
			// table4 is a bare-TLB fracture study: no kernel is booted, so
			// there is no machine to check.
			if sum.Worlds == 0 && name != "table4" {
				t.Fatal("sanitizer attached to no machines")
			}
			if !sum.OK() {
				t.Fatalf("coherence violations:\n%s", sum.Report())
			}
			totalHits += sum.Stats.TLBHits
			totalWindows += sum.Stats.ObligationsOpened
		})
	}
	// The suite as a whole must exercise the oracle: validated hits and
	// opened-and-closed flush windows. (Individual micro figures flush the
	// entries they fill before re-touching, so zero hits there is normal.)
	if totalHits == 0 || totalWindows == 0 {
		t.Fatalf("suite exercised no oracle traffic: hits=%d windows=%d", totalHits, totalWindows)
	}
}

// TestRunReplacesBootHook: Run always attaches the checker, through
// o.Env's boot hook, so a caller's own hook never displaces it and every
// booted machine is counted.
func TestRunReplacesBootHook(t *testing.T) {
	callerHookRan := false
	o := Options{Quick: true, Seed: 1}
	o.Env.BootHook = func(*workload.World) { callerHookRan = true }
	tables, sum, err := Run("fig5", o)
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil || sum.Worlds == 0 {
		t.Fatalf("Run attached the checker to no machine: %+v", sum)
	}
	if callerHookRan {
		t.Fatal("caller's boot hook ran; Run must install its own")
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment not rejected")
	}
}
