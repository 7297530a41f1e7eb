//go:build race

package experiments

// raceBuild reports whether the test binary carries the race detector;
// the suite digests only cover the full-registry render.
const raceBuild = true

// parallelCheckScope under `go test -race`: the race detector makes the
// full suite ×2 worker counts ×3 seeds prohibitively slow, so cover a
// representative subset — microbenchmark cells (fig9, table3), the
// fracture table (table4), the probe fan-outs (ablation) and the daemon
// storm with its nested seed averaging (daemons) — at two seeds. The
// race detector itself is what this build is for; full-registry byte
// comparison runs in the regular build.
func parallelCheckScope() (names []string, seeds []uint64) {
	return []string{"ablation", "daemons", "fig9", "table3", "table4"}, []uint64{1, 42}
}
