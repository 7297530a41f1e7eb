package workload

import (
	"fmt"
	"sync"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
)

// TestWorkloadsLeakNoProcs is the goroutine-leak contract: every workload
// closes its worlds after the last stats read, so no simulated process —
// in particular no idle kernel CPU loop — stays parked once the workload
// returns. The boot hook captures every world each workload boots;
// afterwards each must report zero live processes.
//
// The contract must also hold under fault schedules: injected drops and
// stalls park initiators in the retry loop mid-run, and Shutdown has to
// unwind those too. The whole suite therefore repeats under a light
// schedule and under the drop-heavy one that exercises the recovery path
// hardest.
func TestWorkloadsLeakNoProcs(t *testing.T) {
	for _, specName := range []string{"none", "light", "drop"} {
		spec, ok := fault.Preset(specName)
		if !ok {
			t.Fatalf("unknown fault preset %q", specName)
		}
		t.Run(fmt.Sprintf("faults=%s/engine=wheel", specName), func(t *testing.T) {
			var mu sync.Mutex
			var worlds []*World
			env := Env{Faults: spec, BootHook: func(w *World) {
				mu.Lock()
				worlds = append(worlds, w)
				mu.Unlock()
			}}

			check := func(name string, fn func()) {
				t.Run(name, func(t *testing.T) {
					mu.Lock()
					worlds = worlds[:0]
					mu.Unlock()
					fn()
					mu.Lock()
					defer mu.Unlock()
					if len(worlds) == 0 {
						t.Fatal("workload booted no worlds (boot hook not invoked)")
					}
					for i, w := range worlds {
						if w.Fault.Active() != !spec.Zero() {
							t.Errorf("world %d of %d: fault plane attached=%v, spec zero=%v", i, len(worlds), w.Fault.Active(), spec.Zero())
						}
						if n := w.Eng.LiveProcs(); n != 0 {
							t.Errorf("world %d of %d: %d live procs after workload returned", i, len(worlds), n)
						}
					}
				})
			}

			check("micro", func() {
				RunMicro(MicroConfig{Env: env, Mode: Safe, PTEs: 1, Iterations: 5, Warmup: 1, Runs: 2, Seed: 1})
			})
			check("cow", func() {
				RunCoW(CoWConfig{Env: env, Mode: Safe, Pages: 8, Runs: 2, Seed: 1})
			})
			check("sysbench", func() {
				RunSysbench(SysbenchConfig{Env: env, Mode: Safe, Threads: 2, HotPages: 64, WritesPerSync: 4, Syncs: 2, ComputePerWrite: 1000, Seed: 1})
			})
			check("apache", func() {
				RunApache(ApacheConfig{Env: env, Mode: Safe, Cores: 2, RequestsPerCore: 4, FilePages: 2, ParseCycles: 5000, SendCycles: 5000, Seed: 1})
			})
			check("ackprobe", func() {
				RunAckProbe(AckProbeConfig{Env: env, Mode: Safe, Iterations: 4, Seed: 1})
			})
			check("microstats", func() {
				RunMicroWithStats(MicroConfig{Env: env, Mode: Safe, PTEs: 1, Iterations: 5, Warmup: 1, Seed: 1})
			})
			check("contention", func() {
				RunContention(ContentionConfig{Env: env, Mode: Safe, Initiators: 2, Iterations: 4, Seed: 1})
			})
			check("lazyprobe", func() {
				RunLazyProbe(env, Safe, core.Config{}, 1)
			})
			check("daemonstorm", func() {
				RunDaemonStorm(DaemonStormConfig{Env: env, Mode: Safe, AppThreads: 2, Rounds: 10, Seed: 1})
			})
			check("server", func() {
				RunServer(ServerConfig{Env: env, Mode: Safe, TasksPerCPU: 1, Connections: 1 << 10,
					EventsPerTask: 4, RecycleEvery: 2, RemapEvery: 3, Recyclers: 2, Seed: 1})
			})
			check("scenarios", func() {
				for _, s := range Scenarios() {
					RunScenario(s, Safe, 1, env)
				}
			})
		})
	}
}
