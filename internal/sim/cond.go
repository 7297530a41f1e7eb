package sim

import "slices"

// Cond is a condition variable for processes. Waiters are resumed in FIFO
// order via the event queue, preserving determinism.
//
// Unlike sync.Cond there is no associated lock: the simulation is single
// threaded, so checking a predicate and calling Wait is atomic with respect
// to other processes.
type Cond struct {
	eng *Engine
	// waiters are the blocked processes in arrival order. The backing
	// array is kept across wakeups, so steady-state waits allocate nothing.
	waiters []*Proc
}

// NewCond returns a condition variable bound to the engine.
func (e *Engine) NewCond() *Cond {
	return &Cond{eng: e}
}

// Waiters returns the number of processes currently blocked on the cond.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Wait blocks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.enqueue(p)
	p.yield()
}

// WaitTimeout blocks p until the cond is signaled or d cycles elapse.
// It reports whether the wakeup was a signal (true) or a timeout (false).
func (c *Cond) WaitTimeout(p *Proc, d uint64) (signaled bool) {
	c.enqueue(p)
	p.timeoutEv = c.eng.After(d, p.timeoutFn)
	p.yield()
	return p.signaled
}

func (c *Cond) enqueue(p *Proc) {
	p.waitCond, p.signaled, p.timeoutEv = c, false, nil
	c.waiters = append(c.waiters, p)
}

// Signal wakes the longest-waiting process, if any. The waiter resumes at
// the current virtual time, after the caller yields.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	c.remove(p)
	c.wake(p)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	// wake only schedules resumptions, so no waiter runs (or re-enqueues)
	// before the loop finishes and the array can be reused.
	for _, p := range c.waiters {
		c.wake(p)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

func (c *Cond) wake(p *Proc) {
	p.signaled = true
	if p.timeoutEv != nil {
		p.timeoutEv.Cancel()
		p.timeoutEv = nil
	}
	c.eng.After(0, p.resumeFn)
}

func (c *Cond) remove(p *Proc) {
	if i := slices.Index(c.waiters, p); i >= 0 {
		c.waiters = slices.Delete(c.waiters, i, i+1)
	}
}
