// Fixture: hooks that mutate observed or package-level state.
package hookfix

type world struct {
	Cycles uint64
}

type kernelT struct {
	ASHook func(w *world)
}

// Probe mimics the observer types the simulator exposes.
type Probe struct {
	ShootBegin func(w *world)
	ShootEnd   func(w *world)
}

// env mimics workload.Env, whose BootHook observes every booted world.
type env struct {
	BootHook func(w *world)
}

var globalCount int

func install(k *kernelT) {
	seen := 0
	k.ASHook = func(w *world) {
		w.Cycles = 0  // BAD: mutates observed state through the parameter
		globalCount++ // BAD: mutates a package-level variable
		seen++        // ok: captured local accumulator is the sanctioned pattern
	}
	pr := &Probe{
		ShootBegin: func(w *world) {
			w.Cycles++ // BAD: mutates observed state
		},
		ShootEnd: func(w *world) {
			local := 0
			local++ // ok: hook-local state
			_ = local
		},
	}
	_ = pr
	_ = seen
	var e env
	e.BootHook = func(w *world) {
		w.Cycles = 7 // BAD: mutates observed state
	}
	_ = e
}
