package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/sanitizer"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

// world is one booted machine, assembled the way shootdown.NewMachine
// does it.
type world struct {
	eng *sim.Engine
	k   *kernel.Kernel
	f   *core.Flusher
	// checker is the attached coherence sanitizer of a checked run.
	checker *sanitizer.Checker
}

// bootWorld boots a machine in safe mode (PTI on), the mode of every
// workload.
func bootWorld(cfg core.Config, topo mach.Topology, seed uint64) (*world, error) {
	eng := sim.NewEngine(seed)
	kcfg := kernel.DefaultConfig()
	kcfg.PTI = true
	kcfg.ConsolidatedCachelines = cfg.CachelineConsolidation
	k := kernel.New(eng, topo, mach.DefaultCosts(), kcfg)
	f, err := core.NewFlusher(k, cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	k.SetFlusher(f)
	k.Start()
	return &world{eng: eng, k: k, f: f}, nil
}

// callKind names the calls the benchmark makes into the program.
type callKind uint8

const (
	callMMap callKind = iota
	callMunmap
	callMadvise
	callFdatasync
	callTouch
	callUserRun
	nCallKinds
	// Spans that are not calls: a task's lifetime and one iteration of
	// its loop.
	spanTask = nCallKinds
	spanIter = nCallKinds + 1
)

var kindNames = [...]string{"mmap", "munmap", "madvise", "fdatasync", "touch", "userrun", "task", "iter"}

// span is one traced interval in simulated cycles.
type span struct {
	id, parent int32
	task       int32
	cpu        int32
	kind       callKind
	start, end sim.Time
}

// phase is one host-clock interval of a world's life.
type phase struct {
	name       string
	start, end time.Time
}

// runOpts selects what a world run records besides its metrics.
type runOpts struct {
	trace bool // record spans
	check bool // attach the coherence sanitizer
}

// probe drives one world and measures it: every call the workload makes
// into syscalls, Ctx.Touch and Ctx.UserRun goes through a thread, which
// times it in simulated cycles. Everything but the host clock readings is
// a pure function of the workload's inputs.
type probe struct {
	w     *world
	opts  runOpts
	flush [nCallKinds]bool // which calls are the workload's flush calls

	open, closed bool
	// Window measurements, in simulated cycles.
	winStart, winEnd sim.Time
	calls            [nCallKinds]struct{ n, cycles uint64 }
	flushSamples     []uint64
	stolen           uint64 // UserRun cycles taken by interrupts
	before, after    []kv

	attempted, failed uint64
	// ops is the workload's operation count in the window, set by its
	// output check.
	ops uint64

	// Host clock.
	hostBoot, hostOpen, hostClose time.Time
	memOpen, memClose             runtime.MemStats

	spans []span
}

func newProbe(w *world, opts runOpts, flushCalls ...callKind) *probe {
	pr := &probe{w: w, opts: opts}
	for _, k := range flushCalls {
		pr.flush[k] = true
	}
	return pr
}

// openWindow starts the measured window: it snapshots the layer counters
// and both clocks. Called by the simulation when the first task passes
// the start barrier.
func (pr *probe) openWindow(now sim.Time) {
	pr.open = true
	pr.winStart = now
	pr.before = pr.w.counters()
	runtime.ReadMemStats(&pr.memOpen)
	pr.hostOpen = time.Now()
}

// closeWindow ends the measured window, when the last task finishes.
func (pr *probe) closeWindow(now sim.Time) {
	pr.hostClose = time.Now()
	runtime.ReadMemStats(&pr.memClose)
	pr.open, pr.closed = false, true
	pr.winEnd = now
	pr.after = pr.w.counters()
}

// thread is one task's handle on the probe.
type thread struct {
	pr   *probe
	ctx  *kernel.Ctx
	id   int32
	root int32 // the task span
	iter int32 // the open iteration span, or root
}

// spawn pins a task running fn to cpu.
func (pr *probe) spawn(cpu mach.CPU, name string, as *mm.AddressSpace, id int, fn func(*thread)) *kernel.Task {
	t := &kernel.Task{Name: name, MM: as, Fn: func(ctx *kernel.Ctx) {
		th := &thread{pr: pr, ctx: ctx, id: int32(id)}
		th.root = th.begin(spanTask, 0)
		th.iter = th.root
		fn(th)
		th.end(th.root)
	}}
	pr.w.k.CPU(cpu).Spawn(t)
	return t
}

func (th *thread) begin(kind callKind, parent int32) int32 {
	pr := th.pr
	if !pr.opts.trace {
		return 0
	}
	id := int32(len(pr.spans) + 1)
	pr.spans = append(pr.spans, span{id: id, parent: parent, task: th.id,
		cpu: int32(th.ctx.CPU.ID), kind: kind, start: th.ctx.P.Now()})
	return id
}

func (th *thread) end(id int32) {
	if id != 0 {
		th.pr.spans[id-1].end = th.ctx.P.Now()
	}
}

// beginIter opens an iteration span; the calls until endIter are its
// children.
func (th *thread) beginIter() { th.iter = th.begin(spanIter, th.root) }

func (th *thread) endIter() {
	th.end(th.iter)
	th.iter = th.root
}

// pending is a call in flight.
type pending struct {
	kind  callKind
	span  int32
	start sim.Time
}

// beginCall starts timing a call into the program.
func (th *thread) beginCall(kind callKind) pending {
	return pending{kind, th.begin(kind, th.iter), th.ctx.P.Now()}
}

// endCall finishes timing a call and counts its outcome.
func (th *thread) endCall(c pending, err error) {
	pr := th.pr
	cycles := uint64(th.ctx.P.Now() - c.start)
	th.end(c.span)
	if c.kind != callUserRun {
		pr.attempted++
		if err != nil {
			pr.failed++
		}
	}
	if pr.open {
		pr.calls[c.kind].n++
		pr.calls[c.kind].cycles += cycles
		if pr.flush[c.kind] {
			pr.flushSamples = append(pr.flushSamples, cycles)
		}
	}
}

func (th *thread) now() sim.Time { return th.ctx.P.Now() }

func (th *thread) mmap(pages int, kind mm.Kind, file *mm.File) (*mm.VMA, error) {
	c := th.beginCall(callMMap)
	v, err := syscalls.MMap(th.ctx, uint64(pages)*pageSize, mm.ProtRead|mm.ProtWrite, kind, file, 0)
	th.endCall(c, err)
	return v, err
}

func (th *thread) munmap(v *mm.VMA) error {
	c := th.beginCall(callMunmap)
	err := syscalls.Munmap(th.ctx, v.Start, v.Len())
	th.endCall(c, err)
	return err
}

func (th *thread) madvise(start uint64, pages int) error {
	c := th.beginCall(callMadvise)
	err := syscalls.MadviseDontneed(th.ctx, start, uint64(pages)*pageSize)
	th.endCall(c, err)
	return err
}

func (th *thread) fdatasync(f *mm.File) error {
	c := th.beginCall(callFdatasync)
	err := syscalls.Fdatasync(th.ctx, f)
	th.endCall(c, err)
	return err
}

func (th *thread) touch(va uint64) error {
	c := th.beginCall(callTouch)
	err := th.ctx.Touch(va, mm.AccessWrite)
	th.endCall(c, err)
	return err
}

// userRun runs d cycles of user compute; the cycles interrupts take on
// top of d are the responder cost the benchmark reports.
func (th *thread) userRun(d uint64) {
	c := th.beginCall(callUserRun)
	th.ctx.UserRun(d)
	if th.pr.open {
		th.pr.stolen += uint64(th.ctx.P.Now()-c.start) - d
	}
	th.endCall(c, nil)
}

// kv is one named counter.
type kv struct {
	name string
	v    uint64
}

// counters snapshots every layer's counters: the flusher, the SMP call
// layer, the APIC bus, the cache directory, the TLBs and the kernel's
// per-CPU counters (both summed over CPUs).
func (w *world) counters() []kv {
	var out []kv
	out = flatten(out, "core.", reflect.ValueOf(w.f.Stats()))
	out = flatten(out, "smp.", reflect.ValueOf(w.k.SMP.Stats()))
	out = flatten(out, "apic.", reflect.ValueOf(w.k.Bus.Stats()))
	out = flatten(out, "cache.", reflect.ValueOf(w.k.Dir.Stats()))
	var tl []kv
	var irq [4]uint64
	for i, c := range w.k.CPUs() {
		s := flatten(nil, "tlb.", reflect.ValueOf(c.TLB.Stats()))
		if i == 0 {
			tl = s
		} else {
			for j := range s {
				tl[j].v += s[j].v
			}
		}
		irq[0] += c.Interrupted
		irq[1] += c.IRQsHandled
		irq[2] += c.DeferredFlushes
		irq[3] += c.FullUserFlushes
	}
	out = append(out, tl...)
	return append(out,
		kv{"kernel.Interrupted", irq[0]}, kv{"kernel.IRQsHandled", irq[1]},
		kv{"kernel.DeferredFlushes", irq[2]}, kv{"kernel.FullUserFlushes", irq[3]})
}

// flatten appends every uint64 field (and uint64 array element) of the
// struct v under prefix.
func flatten(out []kv, prefix string, v reflect.Value) []kv {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Uint64:
			out = append(out, kv{name, f.Uint()})
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				out = append(out, kv{fmt.Sprintf("%s.%d", name, j), f.Index(j).Uint()})
			}
		}
	}
	return out
}

// delta returns the window's counter increments by name.
func (pr *probe) delta() map[string]uint64 {
	d := make(map[string]uint64, len(pr.after))
	for i, a := range pr.after {
		d[a.name] = a.v - pr.before[i].v
	}
	return d
}
