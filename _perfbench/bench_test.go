package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/workload"
)

// The benchmark must measure the code path the paper's figures use: at the
// workload package's inputs it reproduces the workload package's numbers.

func TestMicroMatchesWorkload(t *testing.T) {
	topo := mach.DefaultTopology()
	for _, cc := range []core.Config{core.Baseline(), core.AllGeneral()} {
		want := workload.RunMicro(workload.MicroConfig{Mode: workload.Safe, Core: cc,
			Placement: mach.PlaceCrossSocket, PTEs: 10, Iterations: 60, Warmup: 5, Runs: 1, Seed: 1})
		mc := microConfig{ptes: 10, warmup: 5, iters: 60, quantum: 2000,
			respCPU: topo.ResponderFor(0, mach.PlaceCrossSocket)}
		r, err := runMicroWorld(time.Now(), mc, cc, 1, runOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.pr.callMean(callMadvise); got != want.Initiator.Mean {
			t.Errorf("%v: initiator mean %v, workload.RunMicro %v", cc, got, want.Initiator.Mean)
		}
		if got := float64(r.pr.delta()["kernel.Interrupted"]) / 60; got != want.Responder.Mean {
			t.Errorf("%v: responder mean %v, workload.RunMicro %v", cc, got, want.Responder.Mean)
		}
	}
}

func TestSysbenchMatchesWorkload(t *testing.T) {
	want := workload.RunSysbench(workload.SysbenchConfig{Mode: workload.Safe, Core: core.All(),
		Threads: 12, HotPages: 2048, WritesPerSync: 64, Syncs: 3, ComputePerWrite: 2000, Seed: 7})
	sc := sysbenchConfig{threads: 12, hotPages: 2048, writesPerSync: 64, syncs: 3, compute: 2000, seed: 7}
	r, err := runSysbenchWorld(time.Now(), sc, core.All(), runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(r.pr.winEnd - r.pr.winStart); got != want.Makespan || r.pr.ops != uint64(want.Ops) {
		t.Errorf("makespan %d over %d writes, workload.RunSysbench %d over %d", got, r.pr.ops, want.Makespan, want.Ops)
	}
}

func TestServerMatchesWorkload(t *testing.T) {
	topo, err := mach.ScaleTopology(512)
	if err != nil {
		t.Fatal(err)
	}
	cc := core.AllGeneral()
	cc.AsyncShootdown = true
	want := workload.RunServer(workload.ServerConfig{Mode: workload.Safe, Core: cc, Topo: topo,
		TasksPerCPU: 1, Connections: 1 << 12, EventsPerTask: 6, ArenaPages: 16,
		RecycleEvery: 3, RemapEvery: 5, Recyclers: 8, ProcessCycles: 3000, Seed: 1})
	sc := serverConfig{topo: topo, tasksPerCPU: 1, connections: 1 << 12, events: 6, arenaPages: 16,
		recycleEvery: 3, remapEvery: 5, recyclers: 8, process: 3000,
		pageOf: func(c int) uint32 { return uint32(c % 16) },
		pick:   func(ti, ev, n int) int { return (ev*7 + ti) % n }}
	r, err := runServerWorld(time.Now(), sc, cc, 1, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(r.pr.winEnd - r.pr.winStart); got != want.Makespan || r.pr.ops != uint64(want.Events) {
		t.Errorf("makespan %d over %d events, workload.RunServer %d over %d", got, r.pr.ops, want.Makespan, want.Events)
	}
}

// tinySizes runs each workload in about a second.
var tinySizes = sizes{microIters: 20, sysbenchSyncs: 2, serverEvents: 4}

// Every workload passes the correctness check and the determinism guard
// at a tiny size, traced, and reports every metric of both catalogs.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads(tinySizes) {
		t.Run(wl.name, func(t *testing.T) {
			rp, err := measure(wl, 3, 0, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rp.failed != 0 || rp.attempted == 0 {
				t.Errorf("%d of %d operations failed", rp.failed, rp.attempted)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := rp.values[d.name]; !ok {
					t.Errorf("metric %s not measured", d.name)
				}
			}
			if rp.values["core.shootdowns"] == 0 || rp.values["trace.spans"] == 0 {
				t.Errorf("no shootdowns or no spans: %v", rp.values)
			}
		})
	}
}

// madvise-xsocket's seeded inputs (think times, offsets, responder CPU)
// keep the Table 3 gap EXPERIMENTS.md reports.
func TestTable3Gap(t *testing.T) {
	wl := workloads(sizes{microIters: 60})[0]
	r, err := wl.run(1, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if gap := r.simValue("table3_error_pp"); gap < 2 || gap > 4 {
		t.Errorf("table3_error_pp = %v, want the ~2.6 pp gap of a 55%% reduction against 58%%", gap)
	}
}

func TestFirstDifferenceNamesMetric(t *testing.T) {
	a := []metric{{"x", 1}, {"y", 2}}
	if d := firstDifference(a, a); d != "" {
		t.Fatalf("identical lists differ: %s", d)
	}
	if d := firstDifference(a, []metric{{"x", 1}, {"y", 3}}); !strings.HasPrefix(d, "y:") {
		t.Fatalf("difference %q does not name y", d)
	}
}

func TestHostSharesParsesProfile(t *testing.T) {
	var b bytes.Buffer
	if err := pprof.StartCPUProfile(&b); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	wl := workloads(tinySizes)[1]
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := wl.run(1, runOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := hostShares(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if samples == 0 || shares["runtime"] == 0 || shares["sim"] == 0 || total > 1.000001 {
		t.Errorf("%d samples, shares %v (sum %v)", samples, shares, total)
	}
}

// BENCHMARK.json lists exactly the metrics this package reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, catalog %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	wls := workloads(tinySizes)
	if len(spec.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(spec.Workloads), len(wls))
	}
	for i, w := range wls {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, defined %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

type jsonMetric struct{ Name, Unit, Better string }

// simValue returns the named simulated metric.
func (r *rep) simValue(name string) float64 {
	for _, m := range r.sim {
		if m.name == name {
			return m.v
		}
	}
	return 0
}
