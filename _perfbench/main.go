// Command perfbench is the repository's benchmark. It boots simulated
// machines, runs one workload on them one world at a time, checks the
// outputs and prints every metric by name with its unit; the last line of
// its output is the JSON result.
//
//	perfbench --workload madvise-xsocket --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of the timed
// repetitions; with --trace 1 it holds the per-layer metrics, after a
// traced, profiled run whose spans and CPU profile go to --out.
package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: madvise-xsocket, sysbench-storm or server-512-async")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "host seconds to spend on measured repetitions")
	traceOn := flag.Int("trace", 0, "1 runs the traced, profiled run and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and profiles")
	flag.Parse()
	// The simulation runs one goroutine at a time; a single P keeps its
	// handoffs on one OS thread, so host time does not depend on how many
	// CPUs the host lends the process.
	runtime.GOMAXPROCS(1)
	if err := run(os.Stdout, *name, *seed, *seconds, *traceOn == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, name string, seed uint64, seconds float64, traced bool, outDir string) error {
	var wl workloadDef
	var names []string
	for _, w := range workloads(fullSizes) {
		names = append(names, w.name)
		if w.name == name {
			wl = w
		}
	}
	if wl.run == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	rp, err := measure(wl, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "perfbench %s seed=%d: %d timed, %d traced, 1 checked repetitions; sanitizer clean over %d worlds; simulated metrics identical in all\n",
		wl.name, seed, rp.timed, rp.traced, rp.checkedWorlds)
	names = names[:0]
	for n := range rp.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %.6g %s\n", n, rp.values[n], unitOf(n))
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: rp.failed == 0, Attempted: rp.attempted, Failed: rp.failed, Metrics: map[string]valueUnit{}}
	for _, d := range defs {
		res.Metrics[d.name] = valueUnit{rp.values[d.name], d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", rp.failed, rp.attempted)
	}
	return nil
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation measured.
type report struct {
	values            map[string]float64
	attempted, failed uint64
	timed, traced     int
	checkedWorlds     int
}

// minReps is the fewest repetitions a measured phase makes, whatever its
// time budget.
const minReps = 3

// repeat runs wl until budget host seconds have passed, and at least
// minReps times.
func repeat(wl workloadDef, seed uint64, opts runOpts, budget float64) ([]*rep, error) {
	var reps []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < budget {
		// Collect the previous repetition's garbage outside the measured
		// phases, so each repetition starts from the same heap.
		runtime.GC()
		r, err := wl.run(seed, opts)
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			r.dropSpans() // only the first traced repetition is written out
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// measure runs the timed repetitions, then (traced) the traced and
// profiled ones, then the checked one, and applies the determinism guard
// and the correctness checks to all of them.
func measure(wl workloadDef, seed uint64, seconds float64, traced bool, outDir string) (*report, error) {
	timedBudget := seconds
	if traced {
		timedBudget = seconds / 2
	}
	timed, err := repeat(wl, seed, runOpts{}, timedBudget)
	if err != nil {
		return nil, fmt.Errorf("timed run: %w", err)
	}
	rssMB, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var tracedReps []*rep
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		tracedReps, err = repeat(wl, seed, runOpts{trace: true}, seconds/2)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	runtime.GC()
	checked, err := wl.run(seed, runOpts{check: true})
	if err != nil {
		return nil, fmt.Errorf("checked run: %w", err)
	}

	// Determinism guard: every run at one seed reports the same simulated
	// metrics, which also shows that profiling, span recording and the
	// sanitizer stay observational.
	rp := &report{timed: len(timed), traced: len(tracedReps)}
	all := append(append(append([]*rep(nil), timed...), tracedReps...), checked)
	for i, r := range all {
		if d := firstDifference(timed[0].sim, r.sim); d != "" {
			return nil, fmt.Errorf("determinism guard: repetition %d differs from repetition 0 in %s", i, d)
		}
		rp.attempted += r.attempted
		rp.failed += r.failed
	}
	sanity := checked.sanity()
	if !sanity.OK() {
		return nil, fmt.Errorf("sanitizer: %d violations (%d dropped):\n%s", len(sanity.Violations), sanity.Dropped, sanity.Report())
	}
	if sanity.Worlds == 0 {
		return nil, errors.New("sanitizer: no world checked")
	}
	rp.checkedWorlds = sanity.Worlds

	wall, setup, allocs, gcs := hostMedians(timed)
	st := sanity.Stats
	rp.values = map[string]float64{
		"wall_s":                          wall,
		"setup_s":                         setup,
		"peak_rss_mb":                     rssMB,
		"error_rate":                      ratio(rp.failed, rp.attempted),
		"runtime.alloc_bytes_per_op":      allocs,
		"runtime.gc_count":                gcs,
		"sanitizer.redundant_flush_ratio": ratio(st.RedundantSelective+st.RedundantFull, st.SelectiveFlushes+st.FullFlushes),
		// Only madvise-xsocket runs the Table 3 pair of worlds; the other
		// workloads report no gap.
		"table3_error_pp": 0,
	}
	for _, m := range timed[0].sim {
		if !strings.Contains(m.name, "window.") {
			rp.values[m.name] = m.v
		}
	}
	if traced {
		shares, samples, err := hostShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for _, layer := range layers {
			rp.values[layer+".host_share"] = shares[layer]
		}
		rp.values["trace.profile_samples"] = float64(samples)
		tracedWall, _, _, _ := hostMedians(tracedReps)
		rp.values["trace.overhead_s"] = tracedWall - wall
		spans, err := writeTrace(outDir, wl.name, seed, tracedReps[0], prof.Bytes())
		if err != nil {
			return nil, err
		}
		rp.values["trace.spans"] = float64(spans)
	}
	return rp, nil
}

// layers are the packages host time is attributed to.
var layers = []string{"runtime", "sim", "kernel", "core", "smp", "apic", "tlb", "cache", "mm", "pagetable", "mach"}

// unitOf returns the catalogued unit of a metric.
func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	if strings.HasSuffix(name, "_samples") {
		return "count"
	}
	return ""
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}

// writeTrace writes the traced repetition's spans (simulated cycles,
// gzipped TSV), its host-clock phases and the CPU profile under dir, and
// returns the span count.
func writeTrace(dir, name string, seed uint64, r *rep, prof []byte) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	var spansGz, phases bytes.Buffer
	spans, err := gzip.NewWriterLevel(&spansGz, gzip.BestSpeed)
	if err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintln(spans, "world\tid\tparent\ttask\tcpu\tkind\tstart_cycles\tend_cycles")
	fmt.Fprintln(&phases, "world\tphase\tstart_ns\tend_ns")
	n := 0
	origin := r.worlds[0].phases[0].start
	for wi, w := range r.worlds {
		for _, s := range w.pr.spans {
			fmt.Fprintf(spans, "%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n", wi, s.id, s.parent, s.task, s.cpu, kindNames[s.kind], s.start, s.end)
		}
		n += len(w.pr.spans)
		for _, p := range w.phases {
			fmt.Fprintf(&phases, "%d\t%s\t%d\t%d\n", wi, p.name, p.start.Sub(origin).Nanoseconds(), p.end.Sub(origin).Nanoseconds())
		}
	}
	if err := spans.Close(); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	for ext, b := range map[string][]byte{".spans.tsv.gz": spansGz.Bytes(), ".phases.tsv": phases.Bytes(), ".cpu.pprof": prof} {
		if err := os.WriteFile(base+ext, b, 0o644); err != nil {
			return 0, fmt.Errorf("trace: %w", err)
		}
	}
	return n, nil
}
