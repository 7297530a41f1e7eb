package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"shootdown/internal/sched"
)

// renderSuite renders the named experiments exactly as `tlbsim -exp all
// -quick -seed N` writes them to stdout, into one buffer.
func renderSuite(names []string, seed uint64) []byte {
	var buf bytes.Buffer
	opts := Options{Quick: true, Seed: seed}
	reg := Registry()
	for _, name := range names {
		for _, tab := range reg[name](opts) {
			tab.Write(&buf)
			fmt.Fprintln(&buf)
		}
	}
	return buf.Bytes()
}

// suiteDigests pins the sha256 of the full quick suite render per seed.
// With a single event engine there is no second implementation to
// cross-check real workloads against, so the reports themselves are the
// reference: any change to a simulated number changes a digest. A change
// that means to move the numbers updates these values and says why.
var suiteDigests = map[uint64]string{
	1:    "0b8842c661ca032defa4e8117181e2a1c0bba7e84dfb3e7353a70e811dde783d",
	42:   "52b9d548e5327c4f6fc8c81376da3db529248e866f55151d65ffb14359280299",
	7919: "cfa1918b642166e07fed9f520351eed8fe4558ff5d4c9728a71d505405c91f33",
}

// TestParallelOutputBitIdentical is the scheduler's acceptance contract:
// the rendered experiment suite is byte-identical at one worker and at
// eight, across several seeds, and (outside the race build) matches the
// pinned digests. Scope comes from parallelCheckScope, which shrinks under
// `go test -race` (the full suite ×2 worker counts ×seeds is too slow at
// race-detector overhead; the reduced set still covers every fan-out
// shape: cells, nested seed averaging, probes, daemons).
func TestParallelOutputBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison is slow; run without -short")
	}
	names, seeds := parallelCheckScope()
	render := func(workers int, seed uint64) []byte {
		prev := sched.SetWorkers(workers)
		defer sched.SetWorkers(prev)
		return renderSuite(names, seed)
	}
	for _, seed := range seeds {
		ref := render(1, seed)
		if !raceBuild {
			if got := fmt.Sprintf("%x", sha256.Sum256(ref)); got != suiteDigests[seed] {
				t.Errorf("seed %d: workers=1 render sha256 = %s, want %s", seed, got, suiteDigests[seed])
			}
		}
		got := render(8, seed)
		if bytes.Equal(ref, got) {
			continue
		}
		rl := bytes.Split(ref, []byte("\n"))
		gl := bytes.Split(got, []byte("\n"))
		for i := 0; i < len(rl) && i < len(gl); i++ {
			if !bytes.Equal(rl[i], gl[i]) {
				t.Fatalf("seed %d: workers=8 diverges from workers=1 at line %d:\n  ref: %s\n  got: %s",
					seed, i+1, rl[i], gl[i])
			}
		}
		t.Fatalf("seed %d: workers=8 output length differs: %d vs %d bytes", seed, len(ref), len(got))
	}
}
