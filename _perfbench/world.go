package main

import (
	"errors"
	"fmt"
	"time"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/sanitizer"
)

// worldRun is one booted, driven and shut-down machine.
type worldRun struct {
	pr     *probe
	phases []phase
	// sanity is the sanitizer's verdict (checked runs only).
	sanity *sanitizer.Summary
}

// setupSeconds is the host time from the start of the run (input
// generation and boot included) to the window opening.
func (r *worldRun) setupSeconds() float64 { return r.pr.hostOpen.Sub(r.phases[0].start).Seconds() }

// wallSeconds is the host time of the measured window.
func (r *worldRun) wallSeconds() float64 { return r.pr.hostClose.Sub(r.pr.hostOpen).Seconds() }

// runWorld boots a machine, lets spawn place the workload's tasks, runs
// the engine to completion and shuts it down. spawn returns a check of
// the workload's outputs, called after the run. start is when the run
// began on the host clock, before the workload generated its inputs.
func runWorld(start time.Time, cfg core.Config, topo mach.Topology, seed uint64, opts runOpts,
	flushCalls []callKind, spawn func(pr *probe) (check func() error)) (*worldRun, error) {
	w, err := bootWorld(cfg, topo, seed)
	if err != nil {
		return nil, err
	}
	run := &worldRun{}
	if opts.check {
		w.checker = sanitizer.Attach(w.k, w.f, sanitizer.Config{AllowLazyWindow: cfg.LazyRemote})
	}
	pr := newProbe(w, opts, flushCalls...)
	run.pr = pr
	pr.hostBoot = time.Now()
	check := spawn(pr)
	w.eng.Run()
	w.eng.Shutdown()
	done := time.Now()
	if n := w.eng.LiveProcs(); n != 0 {
		return nil, fmt.Errorf("%d simulated processes still live after shutdown", n)
	}
	if !pr.closed {
		return nil, errors.New("the measured window never closed: a task did not finish")
	}
	run.phases = []phase{
		{"boot", start, pr.hostBoot},
		{"warm-up", pr.hostBoot, pr.hostOpen},
		{"window", pr.hostOpen, pr.hostClose},
		{"shutdown", pr.hostClose, done},
	}
	if err := check(); err != nil {
		return nil, err
	}
	if w.checker != nil {
		run.sanity = w.checker.Finish()
	}
	pr.w = nil // release the machine; the repetition keeps only measurements
	return run, nil
}
