//go:build !race

package experiments

// raceBuild reports whether the test binary carries the race detector;
// the suite digests only cover the full-registry render.
const raceBuild = false

// parallelCheckScope returns the experiments and seeds the determinism
// cross-check covers. Without the race detector the full registry runs
// at three seeds — the same sweep `tlbsim -exp all -quick` performs.
func parallelCheckScope() (names []string, seeds []uint64) {
	return Names(), []uint64{1, 42, 7919}
}
