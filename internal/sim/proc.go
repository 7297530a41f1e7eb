//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine that runs cooperatively under
// an Engine. At most one Proc executes at a time; a Proc runs until it
// blocks (Delay, Cond.Wait, ...) or returns, then the engine resumes.
//
// The body runs inside an iter.Pull coroutine: the engine resumes it with
// the coroutine's next function and it blocks by calling the coroutine's
// yield, so a switch is a direct goroutine-to-goroutine handoff that never
// passes through the Go scheduler's run queues.
//
// All Proc methods must be called from the Proc's own body.
type Proc struct {
	// Name identifies the process in traces and error messages.
	Name string

	eng  *Engine
	done bool

	// next resumes the body until it yields or returns (reporting false
	// once it has returned); stop unwinds a parked body (Shutdown).
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool

	// resumeFn is the one resume closure this process ever needs: binding
	// it once at spawn keeps Delay/Yield/cond wakeups from allocating a
	// fresh closure per block, which together with the engine's event free
	// list makes steady-state scheduling allocation-free.
	resumeFn func()

	// Cond wait state. A process waits on at most one Cond at a time, so
	// the waiter record lives here and the timeout callback is bound once
	// at spawn, like resumeFn: waits allocate nothing.
	waitCond  *Cond
	signaled  bool
	timeoutEv *Event
	timeoutFn func()
}

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Go starts fn as a new process. The process begins executing at the current
// virtual time, after the currently running event or process yields.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{Name: name, eng: e}
	p.resumeFn = func() { e.resume(p) }
	p.timeoutFn = func() {
		p.waitCond.remove(p)
		p.timeoutEv = nil
		p.resumeFn()
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil && r != errShutdown {
				// Surface the panic to Run() as an error. Shutdown
				// poison unwinds silently.
				e.procErr = fmt.Errorf("sim: proc %q panicked: %v", p.Name, r)
			}
		}()
		fn(p)
	})
	e.liveProcs++
	e.procs = append(e.procs, p)
	e.At(e.now, p.resumeFn)
	return p
}

// yield returns control to the engine and parks the process until a
// scheduled event resumes it. When Shutdown stops the coroutine the
// yield reports false and the process unwinds with errShutdown.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) {
		panic(errShutdown)
	}
}

// Delay advances the process by d cycles of uninterruptible work or sleep.
func (p *Proc) Delay(d uint64) {
	if d == 0 {
		return
	}
	p.eng.After(d, p.resumeFn)
	p.yield()
}

// Yield lets every other runnable process and event at the current time run
// before this process continues. It costs zero cycles.
func (p *Proc) Yield() {
	p.eng.After(0, p.resumeFn)
	p.yield()
}
