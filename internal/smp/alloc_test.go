package smp

import (
	"testing"

	"shootdown/internal/apic"
	"shootdown/internal/cache"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// callManyAllocs returns the allocations of one CallMany from CPU 0 to
// the given number of targets on the 256-CPU machine, with responders
// draining and acking every round. It averages over steady-state rounds,
// after warm-up rounds that allocate the CFD lines, grow the queues and
// fill the engine's timer-wheel slots.
func callManyAllocs(t *testing.T, targets int) float64 {
	t.Helper()
	topo, err := mach.ScaleTopology(256)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	cost := mach.DefaultCosts()
	dir := cache.New(topo, cost)
	bus := apic.NewBus(eng, topo, cost)
	r := &rig{eng, topo, cost, dir, bus, New(eng, topo, cost, dir, bus, true, false)}
	const warm, runs = 500, 200
	var mask mach.CPUMask
	for i := 0; i < targets; i++ {
		cpu := mach.CPU(2 + 3*i) // spread over cores, sockets and clusters
		mask.Set(cpu)
		r.spawnResponder(cpu, warm+runs+1)
	}
	nop := func(*sim.Proc, mach.CPU, any) {}
	allocs := -1.0
	r.eng.Go("initiator", func(p *sim.Proc) {
		var reqs []*Request
		call := func() { reqs = r.l.CallMany(p, 0, mask, nop, nil, false, nil) }
		for i := 0; i < warm; i++ {
			call()
			r.l.WaitAll(p, 0, reqs)
		}
		allocs = testing.AllocsPerRun(runs, call)
	})
	r.eng.Run()
	if allocs < 0 {
		t.Fatal("initiator did not finish")
	}
	return allocs
}

// TestCallManyAllocsFlatInTargets pins the per-call request state:
// CallMany allocates the Call, the request array and the pointer slice,
// the same three objects for 1 target as for 64.
func TestCallManyAllocsFlatInTargets(t *testing.T) {
	one, many := callManyAllocs(t, 1), callManyAllocs(t, 64)
	if one != many {
		t.Fatalf("CallMany allocates %v objects for 1 target but %v for 64", one, many)
	}
	if one > 3 {
		t.Fatalf("CallMany allocates %v objects, want at most 3", one)
	}
}
