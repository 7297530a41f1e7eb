package kernel

import (
	"testing"

	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// TestWaitRequestsRoundTripAllocatesNoClosures pins the initiator's wait:
// WaitRequests attaches the CPU's wake cond to each request directly, so
// a CallMany + WaitRequests round trip to 16 idle CPUs allocates only
// what CallMany itself does (the Call, the request array and the pointer
// slice), with no per-request hook or cancel closure.
func TestWaitRequestsRoundTripAllocatesNoClosures(t *testing.T) {
	k, _ := newKernel(t, true)
	as := k.NewAddressSpace()
	var targets mach.CPUMask
	for c := mach.CPU(2); c < 34; c += 2 {
		targets.Set(c)
	}
	nop := func(*sim.Proc, mach.CPU, any) {}
	allocs := -1.0
	k.CPU(0).Spawn(&Task{Name: "initiator", MM: as, Fn: func(ctx *Ctx) {
		round := func() {
			reqs := k.SMP.CallMany(ctx.P, ctx.CPU.ID, targets, nop, nil, false, nil)
			ctx.CPU.WaitRequests(ctx.P, reqs)
		}
		for i := 0; i < 500; i++ {
			round()
		}
		allocs = testing.AllocsPerRun(200, round)
	}})
	k.Eng.Run()
	if allocs < 0 {
		t.Fatal("initiator did not finish")
	}
	if allocs > 3 {
		t.Fatalf("CallMany + WaitRequests to %d CPUs allocated %v objects, want at most 3", targets.Count(), allocs)
	}
}
