// Package sim provides a deterministic discrete-event simulation engine
// with a cooperative process model.
//
// The engine maintains a virtual clock measured in CPU cycles and an event
// queue ordered by (time, insertion sequence). Simulated activities run as
// processes (Proc): iter.Pull coroutines that execute strictly one at a
// time, handing control back to the engine whenever they block (Delay,
// Cond.Wait, ...). Because at most one coroutine runs at any instant and
// ties in the event queue are broken by insertion order, a simulation with
// a fixed seed is fully deterministic.
//
// The package is the foundation for every other simulated component in this
// repository: cores, TLBs, APICs and kernel code are all expressed as
// processes and events on a shared Engine.
//
// Engines are independent: two engines share no state, so separate
// simulations may run on separate OS threads concurrently (see
// internal/sched). A single Engine remains strictly single-threaded.
package sim

import (
	"errors"
	"fmt"
)

// Time is a point in virtual time, measured in cycles since simulation start.
type Time uint64

// Event is a scheduled callback. It can be cancelled before it fires.
//
// An Event handle is only valid until the event fires (or, if cancelled,
// until the engine drains it from the queue): fired events are recycled
// into the engine's free list, so retaining a handle past its firing and
// calling Cancel on it later would act on an unrelated event.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

// Cancel prevents the event from firing. Cancelling an event that was
// already cancelled is a no-op. Cancel must not be called after the event
// fired: the handle is recycled at that point (see the Event doc).
func (ev *Event) Cancel() { ev.cancelled = true }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Engine is a deterministic discrete-event simulator.
//
// An Engine must be driven from a single goroutine via Run or RunUntil.
// It is not safe for concurrent use; processes spawned with Go interleave
// cooperatively and never run in parallel with the engine or each other.
// Distinct Engines share nothing and may run concurrently.
type Engine struct {
	now Time
	// q holds the pending events in (at, seq) order: the hierarchical
	// timer wheel of wheel.go, whose pushes are O(1) and whose
	// same-timestamp events dispatch as one batch, so ns/event stays flat
	// as machine width grows.
	q   *timerWheel
	seq uint64
	rng *Rand

	// free is the event free list: every fired or drained-cancelled event
	// is recycled here, so steady-state scheduling (Delay, Yield, cond
	// wakeups) allocates nothing.
	free []*Event

	liveProcs int
	procs     []*Proc
	procErr   error
	current   *Proc
}

// NewEngine returns an engine with the clock at zero and a deterministic
// random source derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{q: newTimerWheel(), rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of events (cancelled or not) still queued.
func (e *Engine) Pending() int { return e.q.len() }

// LiveProcs returns the number of processes that have been started and have
// not yet returned.
func (e *Engine) LiveProcs() int { return e.liveProcs }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a simulation that rewinds its clock is always a bug.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.cancelled = t, e.seq, fn, false
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn}
	}
	e.q.push(ev)
	return ev
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d uint64, fn func()) *Event {
	return e.At(e.now+Time(d), fn)
}

// release returns a drained event to the free list.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Run executes events until the queue is empty. Processes that are blocked on
// conditions with no future signal are left blocked; Run returns when no
// event can advance the simulation further. If a process panicked, Run
// re-panics with its error.
func (e *Engine) Run() {
	e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= horizon. The clock stops at
// the last executed event (it does not jump to horizon).
func (e *Engine) RunUntil(horizon Time) {
	for e.q.len() > 0 {
		if t, ok := e.q.nextTime(); !ok || t > horizon {
			return
		}
		next := e.q.pop()
		if next.cancelled {
			e.release(next)
			continue
		}
		e.now = next.at
		fn := next.fn
		e.release(next)
		fn()
		if e.procErr != nil {
			panic(e.procErr)
		}
	}
}

// errShutdown is the poison a parked process panics with when Shutdown
// stops its coroutine: the panic unwinds the body (running its defers) and
// the proc trampoline swallows it.
var errShutdown = errors.New("sim: engine shut down")

// Shutdown drains the engine after the simulation is over: every process
// that is still blocked (on a Delay that will never elapse under a panicked
// run, a Cond with no future signal, an idle CPU loop, ...) has its
// coroutine stopped, which unwinds the body so its goroutine exits. A
// process whose start event never fired is stopped without running its
// body at all. Without this, every booted machine parks its per-CPU loops
// forever — across thousands of pooled runs that is an unbounded goroutine
// leak.
//
// Shutdown must be called from the goroutine that drives the engine, after
// Run/RunUntil returned or panicked. The engine must not be used afterwards.
// It is idempotent, and LiveProcs reports 0 once it returns.
func (e *Engine) Shutdown() {
	// Index loop: a dying process could in principle spawn another during
	// unwind; appended procs are drained in the same pass.
	for i := 0; i < len(e.procs); i++ {
		p := e.procs[i]
		if p.done {
			continue
		}
		prev := e.current
		e.current = p
		p.stop()
		e.current = prev
		p.done = true
		e.liveProcs--
	}
	e.procs = nil
	e.q.clear()
	e.free = nil
	e.procErr = nil
}

// Current returns the process that is executing right now, or nil when
// control is inside the event loop itself (timer callbacks, hooks fired
// from events). Observational tooling uses this to attribute actions —
// lock acquisitions, PTE writes — to the simulated actor performing them.
func (e *Engine) Current() *Proc { return e.current }

// resume hands control to p and returns when p blocks or its body returns.
func (e *Engine) resume(p *Proc) {
	prev := e.current
	e.current = p
	if _, ok := p.next(); !ok {
		p.done = true
		e.liveProcs--
	}
	e.current = prev
}
