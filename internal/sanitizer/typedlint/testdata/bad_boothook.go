// Fixture: boot hooks installed on the workload.Env.BootHook field, by
// assignment and by composite literal. Attaching instrumentation through
// mutating methods is what a boot hook is for, so those calls stay
// exempt; a direct write through the hook parameter is still a finding —
// exactly one.
package bootfix

import (
	"shootdown/internal/race"
	"shootdown/internal/workload"
)

func withDetector(env workload.Env) workload.Env {
	env.BootHook = func(w *workload.World) {
		w.K.EnableRace(race.New(w.Eng))
		w.F.EnableRace()
	}
	return env
}

func withImpureHook() workload.Env {
	return workload.Env{BootHook: func(w *workload.World) {
		w.Fault = nil
	}}
}
