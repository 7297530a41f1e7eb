package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/sanitizer"
)

// rep is one repetition of a workload: one or more worlds run back to
// back from the same inputs.
type rep struct {
	// sim holds every simulated metric in a fixed order; two repetitions
	// at one seed must agree on all of it.
	sim []metric
	// Host measurements: the window and the set-up before it, summed over
	// the worlds, and the Go heap's activity during the window.
	wall, setup       float64
	allocBytes, gcs   float64
	attempted, failed uint64
	worlds            []*worldRun
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	run  func(seed uint64, opts runOpts) (*rep, error)
}

// sizes sets how much work one repetition does.
type sizes struct {
	microIters    int // timed madvise calls per world
	sysbenchSyncs int // fdatasync rounds per thread
	serverEvents  int // events per server task
}

// fullSizes is the benchmark's: each workload puts at least ten
// flush-call samples beyond p95 (2000, 1440 and 448 samples), and its
// simulated metrics spread across seeds by under a third of their bounds.
var fullSizes = sizes{microIters: 2000, sysbenchSyncs: 120, serverEvents: 20}

func workloads(sz sizes) []workloadDef {
	return []workloadDef{
		{"madvise-xsocket", func(seed uint64, opts runOpts) (*rep, error) {
			start := time.Now()
			mc := microInputs(seed, 5, sz.microIters)
			base, err := runMicroWorld(start, mc, core.Baseline(), seed, opts)
			if err != nil {
				return nil, fmt.Errorf("baseline world: %w", err)
			}
			runtime.GC() // as between repetitions: each world starts from the same heap
			all, err := runMicroWorld(time.Now(), mc, core.AllGeneral(), seed, opts)
			if err != nil {
				return nil, fmt.Errorf("all-general world: %w", err)
			}
			reduction := 100 * (1 - all.pr.callMean(callMadvise)/base.pr.callMean(callMadvise))
			extra := []metric{{"table3_error_pp", math.Abs(paperTable3Reduction - reduction)}}
			extra = append(extra, rawCounters("baseline.window.", base.pr)...)
			return newRep(extra, []*worldRun{all}, base, all), nil
		}},
		{"sysbench-storm", func(seed uint64, opts runOpts) (*rep, error) {
			sc := sysbenchConfig{threads: 12, hotPages: 2048, writesPerSync: 64,
				syncs: sz.sysbenchSyncs, compute: 2000, seed: seed}
			r, err := runSysbenchWorld(time.Now(), sc, core.All(), opts)
			if err != nil {
				return nil, err
			}
			return newRep(nil, []*worldRun{r}, r), nil
		}},
		{"server-512-async", func(seed uint64, opts runOpts) (*rep, error) {
			topo, err := mach.ScaleTopology(512)
			if err != nil {
				return nil, err
			}
			cc := core.AllGeneral()
			cc.AsyncShootdown = true
			// Two worlds from sub-seeds pool 448 flush-call samples.
			var worlds []*worldRun
			for j := uint64(0); j < 2; j++ {
				if j > 0 {
					runtime.GC()
				}
				start := time.Now()
				sub := 2*seed + j
				sc := serverInputs(sub, serverConfig{topo: topo, tasksPerCPU: 2, connections: 1 << 20,
					events: sz.serverEvents, arenaPages: 16, recycleEvery: 4, remapEvery: 9,
					recyclers: 32, process: 3000})
				r, err := runServerWorld(start, sc, cc, sub, opts)
				if err != nil {
					return nil, err
				}
				worlds = append(worlds, r)
			}
			return newRep(nil, worlds, worlds...), nil
		}},
	}
}

// newRep assembles a repetition from its worlds; measured are the worlds
// whose pooled windows the simulated end-to-end metrics describe.
func newRep(extra []metric, measured []*worldRun, worlds ...*worldRun) *rep {
	r := &rep{worlds: worlds}
	var allocs, ops uint64
	for _, w := range worlds {
		r.wall += w.wallSeconds()
		r.setup += w.setupSeconds()
		r.attempted += w.pr.attempted
		r.failed += w.pr.failed
		allocs += w.pr.memClose.TotalAlloc - w.pr.memOpen.TotalAlloc
		r.gcs += float64(w.pr.memClose.NumGC - w.pr.memOpen.NumGC)
		ops += w.pr.ops
	}
	r.allocBytes = float64(allocs) / float64(max(ops, 1))
	prs := make([]*probe, len(measured))
	for i, w := range measured {
		prs[i] = w.pr
	}
	r.sim = append(simMetrics(prs), extra...)
	return r
}

// sanity merges the sanitizer verdicts of a checked repetition.
func (r *rep) sanity() *sanitizer.Summary {
	sum := &sanitizer.Summary{}
	for _, w := range r.worlds {
		if s := w.sanity; s != nil {
			sum.Worlds += s.Worlds
			sum.Violations = append(sum.Violations, s.Violations...)
			sum.Dropped += s.Dropped
			sum.Stats.Add(s.Stats)
		}
	}
	return sum
}

// hostMedians returns the median of each host measurement over reps.
func hostMedians(reps []*rep) (wall, setup, allocs, gcs float64) {
	pick := func(f func(*rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	return pick(func(r *rep) float64 { return r.wall }), pick(func(r *rep) float64 { return r.setup }),
		pick(func(r *rep) float64 { return r.allocBytes }), pick(func(r *rep) float64 { return r.gcs })
}

// dropSpans releases the repetition's recorded spans.
func (r *rep) dropSpans() {
	for _, w := range r.worlds {
		w.pr.spans = nil
	}
}
