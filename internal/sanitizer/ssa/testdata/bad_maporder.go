// Fixture: charging simulated time inside randomized map iteration. The
// detflow analyzer must report exactly two findings, one per charging
// loop: Go map order is random per process, so a Delay fed by the
// iteration makes event interleaving irreproducible. Ranging a map
// without charging time stays clean.
package mapfix

import "shootdown/internal/sim"

type flusher struct {
	pending map[uint64]uint64
}

func (f *flusher) drain(p *sim.Proc) {
	for va, cost := range f.pending {
		p.Delay(cost) // order-dependent timing: nondeterministic
		_ = va
	}
	local := make(map[int]int)
	for k := range local {
		p.Delay(uint64(k))
	}
	// Iterating without charging time is fine.
	n := 0
	for range f.pending {
		n++
	}
	_ = n
}
