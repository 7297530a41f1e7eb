package sim

import "testing"

// TestWheelHorizonThenEarlierInsert is the cursor-advance regression: a
// RunUntil that stops at a horizon must not let the wheel's cursor creep
// up to the (later) pending minimum, because the caller may then legally
// schedule between the horizon and that minimum.
func TestWheelHorizonThenEarlierInsert(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(10, func() { order = append(order, "t10") })
	e.At(1_000_000, func() { order = append(order, "far") })
	e.RunUntil(500) // fires t10, leaves "far"; clock rests at 10
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	// Schedule well before the pending minimum; a cursor that advanced
	// toward 1_000_000 during the horizon peek would misfile (or reject)
	// this event.
	e.At(600, func() { order = append(order, "t600") })
	e.At(11, func() { order = append(order, "t11") })
	e.Run()
	want := []string{"t10", "t11", "t600", "far"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestWheelSameTimestampSeqOrder pins batched dispatch: many events at
// one timestamp fire in scheduling order, including ones added to the
// batch's timestamp from inside a callback of that same batch.
func TestWheelSameTimestampSeqOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.At(777, func() {
			order = append(order, i)
			if i == 10 {
				for j := 100; j < 103; j++ {
					j := j
					e.At(777, func() { order = append(order, j) })
				}
			}
		})
	}
	e.Run()
	if len(order) != 53 {
		t.Fatalf("fired %d events, want 53", len(order))
	}
	for i := 0; i < 50; i++ {
		if order[i] != i {
			t.Fatalf("order[%d] = %d, want %d (batch broke seq order)", i, order[i], i)
		}
	}
	for j := 0; j < 3; j++ {
		if order[50+j] != 100+j {
			t.Fatalf("callback-time inserts fired as %v", order[50:])
		}
	}
}

// TestWheelShutdownDrains checks the poison-unwind drain path under the
// wheel: parked processes are unwound and the queue retains nothing.
func TestWheelShutdownDrains(t *testing.T) {
	e := NewEngine(1)
	e.Go("sleeper", func(p *Proc) {
		p.Delay(1 << 40) // far future, never reached
	})
	e.Go("idler", func(p *Proc) {
		for {
			p.Delay(100)
		}
	})
	e.RunUntil(1000)
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want 2", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", e.LiveProcs())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after Shutdown = %d, want 0", e.Pending())
	}
}

// TestWheelPushAfterCancelledTail is the cursor-rewind regression: popping
// a cancelled event moves the wheel's cursor to its timestamp, but the
// engine skips it without advancing the clock. When that event was the
// last one a Run dispatched, the next At may legally land between the
// clock and the cursor, and must still fire in (time, seq) order.
func TestWheelPushAfterCancelledTail(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(0xff00, func() { order = append(order, "first") })
	e.At(0x1_0005, func() {}).Cancel()
	e.Run() // fires "first", pops the cancelled tail; the clock rests at 0xff00
	if e.Now() != 0xff00 {
		t.Fatalf("Now = %#x, want 0xff00", e.Now())
	}
	// Between the clock and the cancelled tail, across a byte boundary of
	// the cursor, plus one event after the tail.
	e.At(0x1_0006, func() { order = append(order, "after-tail") })
	e.At(0xfff0, func() { order = append(order, "before-tail") })
	e.Run()
	want := []string{"first", "before-tail", "after-tail"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
