package main

import (
	"errors"
	"fmt"
	"time"

	"shootdown/internal/core"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
)

const pageSize = pagetable.PageSize4K

// --- madvise-xsocket: §5.1 / Table 3 ---

// microConfig is the madvise(DONTNEED) microbenchmark: an initiator on
// CPU 0 touches and madvises ptes pages per iteration while a responder
// of the same process computes on respCPU.
type microConfig struct {
	ptes, warmup, iters int
	respCPU             mach.CPU
	// quantum is the responder's user-compute slice, cycles.
	quantum uint64
	// think is the initiator's user compute before each iteration and
	// offset the first page each iteration touches and madvises, within
	// a 2*ptes-page arena; both indexed by iteration, nil meaning 0.
	think  []uint64
	offset []int
}

// microInputs derives the benchmark's inputs from the seed: a responder
// CPU on the other socket, the responder's compute slice, and
// per-iteration think times and arena offsets.
func microInputs(seed uint64, warmup, iters int) microConfig {
	rng := sim.NewRand(seed)
	remote := mach.DefaultTopology().CPUsOfSocket(1)
	mc := microConfig{
		ptes: 10, warmup: warmup, iters: iters,
		respCPU: remote[rng.Intn(len(remote))],
		quantum: 1000 + rng.Uint64n(2001),
		think:   make([]uint64, warmup+iters),
		offset:  make([]int, warmup+iters),
	}
	for i := range mc.think {
		mc.think[i] = rng.Uint64n(4000)
		mc.offset[i] = rng.Intn(mc.ptes + 1)
	}
	return mc
}

// runMicroWorld runs the microbenchmark on one world in safe mode on the
// paper's 56-CPU machine.
func runMicroWorld(start time.Time, mc microConfig, cc core.Config, seed uint64, opts runOpts) (*worldRun, error) {
	return runWorld(start, cc, mach.DefaultTopology(), seed, opts, []callKind{callMadvise}, func(pr *probe) func() error {
		as := pr.w.k.NewAddressSpace()
		stop := false
		pr.spawn(mc.respCPU, "responder", as, 1, func(th *thread) {
			for !stop {
				th.userRun(mc.quantum)
			}
		})
		done := 0
		pr.spawn(0, "initiator", as, 0, func(th *thread) {
			defer func() { stop = true }()
			th.userRun(10_000) // settle: responder running, both CPUs active
			v, err := th.mmap(2*mc.ptes, mm.Anon, nil)
			if err != nil {
				return
			}
			for it := 0; it < mc.warmup+mc.iters; it++ {
				if it == mc.warmup {
					pr.openWindow(th.now())
				}
				th.beginIter()
				if mc.think != nil && mc.think[it] > 0 {
					th.userRun(mc.think[it])
				}
				first := v.Start
				if mc.offset != nil {
					first += uint64(mc.offset[it]) * pageSize
				}
				for i := 0; i < mc.ptes; i++ {
					_ = th.touch(first + uint64(i)*pageSize) // counted as failed
				}
				_ = th.madvise(first, mc.ptes)
				th.endIter()
				done++
			}
			// Let the tail IRQ on the responder drain, then close.
			th.userRun(20_000)
			pr.closeWindow(th.now())
		})
		return func() error {
			if done != mc.warmup+mc.iters || pr.calls[callMadvise].n != uint64(mc.iters) {
				return fmt.Errorf("madvise iterations: ran %d (%d timed), configured %d (%d timed)",
					done, pr.calls[callMadvise].n, mc.warmup+mc.iters, mc.iters)
			}
			pr.ops = pr.calls[callMadvise].n
			return nil
		}
	})
}

// --- sysbench-storm: §5.2 / Figure 10 ---

// sysbenchConfig is the Sysbench-style writer: threads on socket 0 write
// random pages of a hot region of a shared file mapping and fdatasync
// every writesPerSync writes.
type sysbenchConfig struct {
	threads, hotPages, writesPerSync, syncs int
	compute                                 uint64 // user compute per write, cycles
	seed                                    uint64 // seeds each thread's page stream
}

// runSysbenchWorld runs the writers on one world in safe mode.
func runSysbenchWorld(start time.Time, sc sysbenchConfig, cc core.Config, opts runOpts) (*worldRun, error) {
	return runWorld(start, cc, mach.DefaultTopology(), sc.seed, opts, []callKind{callFdatasync}, func(pr *probe) func() error {
		k := pr.w.k
		as := k.NewAddressSpace()
		// A 3 GiB file; only the hot region is ever touched.
		file := k.NewFile("pmem-db", 3<<30)
		socket0 := k.Topo.CPUsOfSocket(0)
		var region *mm.VMA
		ready, finished := 0, 0
		var tasks []*kernel.Task
		for i := 0; i < sc.threads; i++ {
			rng := sim.NewRand(sc.seed*2654435761 + uint64(i))
			tasks = append(tasks, pr.spawn(socket0[i], "sysbench", as, i, func(th *thread) {
				if i == 0 && !sysbenchPrep(th, sc, file, &region) {
					region = &mm.VMA{} // release the barrier; the run fails its check
				}
				ready++
				for ready < sc.threads || region == nil {
					th.userRun(500)
				}
				if !pr.open && !pr.closed {
					pr.openWindow(th.now())
				}
				for s := 0; s < sc.syncs; s++ {
					th.beginIter()
					for w := 0; w < sc.writesPerSync; w++ {
						_ = th.touch(region.Start + rng.Uint64n(uint64(sc.hotPages))*pageSize)
						th.userRun(sc.compute)
					}
					_ = th.fdatasync(file)
					th.endIter()
				}
				finished++
				if finished == sc.threads {
					pr.closeWindow(th.now())
				}
			}))
		}
		return func() error {
			writes := uint64(sc.threads * sc.syncs * sc.writesPerSync)
			if err := allDone(tasks); err != nil {
				return err
			}
			if pr.calls[callTouch].n != writes || pr.calls[callFdatasync].n != uint64(sc.threads*sc.syncs) {
				return fmt.Errorf("sysbench: %d writes and %d syncs, configured %d and %d",
					pr.calls[callTouch].n, pr.calls[callFdatasync].n, writes, sc.threads*sc.syncs)
			}
			pr.ops = writes
			return nil
		}
	})
}

// sysbenchPrep maps the hot region and pre-faults it (the warm-up,
// outside the window).
func sysbenchPrep(th *thread, sc sysbenchConfig, file *mm.File, region **mm.VMA) bool {
	v, err := th.mmap(sc.hotPages, mm.FileShared, file)
	if err != nil {
		return false
	}
	for i := 0; i < sc.hotPages; i++ {
		if th.touch(v.Start+uint64(i)*pageSize) != nil {
			return false
		}
	}
	if th.fdatasync(file) != nil {
		return false
	}
	*region = v
	return true
}

// --- server-512-async: the scale experiment's full-shape cell ---

// serverConfig is the event-driven connection server: every CPU runs
// tasksPerCPU workers multiplexing shards of one connection table over
// per-task buffer arenas; recyclers madvise half their arena every
// recycleEvery events and munmap+mmap it every remapEvery events.
type serverConfig struct {
	topo                                 mach.Topology
	tasksPerCPU, connections, events     int
	arenaPages, recycleEvery, remapEvery int
	recyclers                            int
	process                              uint64 // user compute per event, cycles
	// pageOf maps a connection to its arena page; pick chooses the
	// connection of task ti's event ev from a shard of n.
	pageOf func(conn int) uint32
	pick   func(ti, ev, n int) int
}

// serverInputs derives the connection-to-page map and every task's
// sequence of connections from the seed.
func serverInputs(seed uint64, sc serverConfig) serverConfig {
	rng := sim.NewRand(seed)
	pages := make([]uint32, sc.connections)
	for i := range pages {
		pages[i] = uint32(rng.Intn(sc.arenaPages))
	}
	tasks := sc.topo.NumCPUs() * sc.tasksPerCPU
	perTask := sc.connections / tasks
	picks := make([]int32, tasks*sc.events)
	for i := range picks {
		picks[i] = int32(rng.Intn(perTask))
	}
	sc.pageOf = func(c int) uint32 { return pages[c] }
	sc.pick = func(ti, ev, _ int) int { return int(picks[ti*sc.events+ev]) }
	return sc
}

// runServerWorld runs the server on one world in safe mode.
func runServerWorld(start time.Time, sc serverConfig, cc core.Config, seed uint64, opts runOpts) (*worldRun, error) {
	return runWorld(start, cc, sc.topo, seed, opts, []callKind{callMadvise, callMunmap}, func(pr *probe) func() error {
		numCPUs := sc.topo.NumCPUs()
		tasks := numCPUs * sc.tasksPerCPU
		type conn struct{ page, hits uint32 }
		table := make([]conn, sc.connections)
		for i := range table {
			table[i].page = sc.pageOf(i)
		}
		perTask := sc.connections / tasks
		as := pr.w.k.NewAddressSpace()

		// The recyclers live in the first wave (one task per CPU); the
		// rest of the first wave serves overtime until every recycle
		// landed, so each storm hits a busy machine.
		recycleStride, recyclerTotal := 0, 0
		if sc.recyclers > 0 {
			recycleStride = max(numCPUs/sc.recyclers, 1)
		}
		firstWave := min(tasks, numCPUs)
		started, recyclersDone, finished, served := 0, 0, 0, 0
		var all []*kernel.Task
		for ti := 0; ti < tasks; ti++ {
			recycles := recycleStride == 0 || (ti < numCPUs && ti%recycleStride == 0)
			if recycles && recycleStride != 0 {
				recyclerTotal++
			}
			shard := table[ti*perTask : (ti+1)*perTask]
			all = append(all, pr.spawn(mach.CPU(ti%numCPUs), fmt.Sprintf("srv%d", ti), as, ti, func(th *thread) {
				arena, err := th.mmap(sc.arenaPages, mm.Anon, nil)
				if err != nil {
					return
				}
				if started == 0 {
					pr.openWindow(th.now())
				}
				started++
				if recycles {
					for started < firstWave {
						th.userRun(500)
					}
				}
				for ev := 0; ev < sc.events; ev++ {
					th.beginIter()
					c := &shard[sc.pick(ti, ev, len(shard))]
					c.hits++
					_ = th.touch(arena.Start + uint64(c.page)*pageSize)
					th.userRun(sc.process)
					if recycles && (ev+1)%sc.recycleEvery == 0 {
						_ = th.madvise(arena.Start, sc.arenaPages/2)
					}
					if recycles && (ev+1)%sc.remapEvery == 0 {
						_ = th.munmap(arena)
						if arena, err = th.mmap(sc.arenaPages, mm.Anon, nil); err != nil {
							return
						}
					}
					served++
					th.endIter()
				}
				if recycleStride != 0 {
					if recycles {
						recyclersDone++
					} else {
						for recyclersDone < recyclerTotal {
							th.userRun(2 * sc.process)
						}
					}
				}
				finished++
				if finished == tasks {
					pr.closeWindow(th.now())
				}
			}))
		}
		return func() error {
			if err := allDone(all); err != nil {
				return err
			}
			hits := 0
			for _, c := range table {
				hits += int(c.hits)
			}
			if want := tasks * sc.events; served != want || hits != want {
				return fmt.Errorf("server: served %d events with %d connection hits, configured %d", served, hits, want)
			}
			pr.ops = uint64(served)
			return nil
		}
	})
}

// allDone checks that every task body returned.
func allDone(tasks []*kernel.Task) error {
	for _, t := range tasks {
		if !t.Done() {
			return errors.New("task " + t.Name + " did not finish")
		}
	}
	return nil
}
