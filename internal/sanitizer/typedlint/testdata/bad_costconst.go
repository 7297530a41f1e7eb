// Fixture: constant cycle costs with no integer literal at any call
// site. The costliteral analyzer must report exactly two findings — a
// named constant at a Delay call, and the same constant routed through a
// thin wrapper whose parameter the fixpoint proves cost-like. Matching
// literals at the call site alone would report zero.
package costfix

import "shootdown/internal/sim"

const fixedCost = 120

func chargeFixed(p *sim.Proc) {
	p.Delay(fixedCost)
}

func delayVia(p *sim.Proc, cost uint64) {
	p.Delay(cost)
}

func chargeWrapped(p *sim.Proc) {
	delayVia(p, fixedCost)
}
