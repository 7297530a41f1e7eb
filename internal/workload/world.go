// Package workload implements the paper's benchmark workloads on the
// simulated machine: the madvise shootdown microbenchmark (Figures 5-8 and
// Table 3), the copy-on-write microbenchmark (Figure 9), a Sysbench-style
// mmap-write/fdatasync database workload (Figure 10), an Apache-style
// mmap/send/munmap web-serving workload (Figure 11), and the
// page-fracturing dTLB-miss experiment (Table 4).
package workload

import (
	"errors"
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// World bundles a booted simulated machine.
type World struct {
	Eng *sim.Engine
	K   *kernel.Kernel
	F   *core.Flusher
	// Fault is the attached fault plane (nil on an unfaulted world).
	Fault *fault.Plane
}

// Mode selects the paper's two evaluation setups.
type Mode bool

const (
	// Safe is Linux's default: PTI and mitigations on.
	Safe Mode = true
	// Unsafe disables the Meltdown/Spectre mitigations (no PTI).
	Unsafe Mode = false
)

// String names the mode as in the paper.
func (m Mode) String() string {
	if m == Safe {
		return "safe"
	}
	return "unsafe"
}

// Env is the machine a world boots: everything about a simulated run that
// is not the workload itself. Every Run* config carries one, and
// experiments.Options threads one through every cell, so cells with
// different environments run side by side under the parallel scheduler.
// The zero Env is the paper's setup: no faults, each config's own dispatch
// tier, the 56-CPU testbed, and no boot hook.
type Env struct {
	// Faults is the fault schedule; the plane is keyed by the world's
	// seed, so (seed, Faults) fully determines the machine's behaviour.
	Faults fault.Spec
	// TLBMode overrides the shootdown dispatch tier: "" leaves configs as
	// built, "sync" clears the async fabric knobs, "async" sets
	// AsyncShootdown — except on configs carrying SerializedIPIs or
	// LazyRemote, which model competing dispatch disciplines and keep
	// their own tier.
	TLBMode string
	// Topo is the machine layout; the zero Topology means
	// mach.DefaultTopology().
	Topo mach.Topology
	// BootHook, when non-nil, observes every world right after boot,
	// before any task is spawned. tlbcheck uses it to attach the coherence
	// sanitizer or the race detector. Hooks must be observational: they
	// may install observers but not advance simulated time. Worlds boot
	// concurrently, so a hook that collects them must lock.
	BootHook func(*World)
}

// ParseEnv builds an Env from the -faults, -tlbmode and -topo flag
// spellings shared by the command-line tools. An empty string selects the
// zero value of that part.
func ParseEnv(faults, tlbmode, topo string) (Env, error) {
	spec, err := fault.Parse(faults)
	if err != nil {
		return Env{}, err
	}
	switch tlbmode {
	case "", "sync", "async":
	default:
		return Env{}, errors.New("-tlbmode must be sync or async")
	}
	env := Env{Faults: spec, TLBMode: tlbmode}
	if topo != "" {
		if env.Topo, err = mach.ParseTopology(topo); err != nil {
			return Env{}, err
		}
	}
	return env, nil
}

// applyTLBMode rewrites cfg per the dispatch-tier override. The sync
// rewrite also clears the broken fabric variants, which are only defined
// on the async tier.
func applyTLBMode(mode string, cfg core.Config) core.Config {
	switch mode {
	case "sync":
		cfg.AsyncShootdown = false
		cfg.BrokenAckBeforeDrain = false
		cfg.BrokenCoalesceShrink = false
	case "async":
		if !cfg.SerializedIPIs && !cfg.LazyRemote {
			cfg.AsyncShootdown = true
		}
	}
	return cfg
}

// Close shuts the world's engine down, unwinding every parked process
// (idle CPU loops, the flusher) so their goroutines exit. Call it after
// the last read of simulation state; the world is unusable afterwards.
func (w *World) Close() { w.Eng.Shutdown() }

// NewWorld boots a machine with the given safety mode and protocol config
// in env. It is the only world constructor: a workload that needs a
// different machine changes its Env, not a process-wide setting.
func NewWorld(env Env, mode Mode, cfg core.Config, seed uint64) *World {
	cfg = applyTLBMode(env.TLBMode, cfg)
	topo := env.Topo
	if topo == (mach.Topology{}) {
		topo = mach.DefaultTopology()
	}
	eng := sim.NewEngine(seed)
	kcfg := kernel.DefaultConfig()
	kcfg.PTI = bool(mode)
	kcfg.ConsolidatedCachelines = cfg.CachelineConsolidation
	k := kernel.New(eng, topo, mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	k.SetFlusher(f)
	w := &World{Eng: eng, K: k, F: f}
	if !env.Faults.Zero() || env.Faults.NoRetry {
		w.Fault = fault.New(seed, env.Faults)
		k.SetFaultPlane(w.Fault)
	}
	k.Start()
	if env.BootHook != nil {
		env.BootHook(w)
	}
	return w
}
