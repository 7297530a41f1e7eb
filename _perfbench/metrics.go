package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one named value.
type metric struct {
	name string
	v    float64
}

// metricDef describes a reported metric. The catalogs below are the
// benchmark's definition; BENCHMARK.json mirrors them.
type metricDef struct {
	name, unit, better string
}

// endToEnd are printed with --trace 0.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_mcycle", "1/Mcycle", "higher"},
	{"flush_call_p50_cycles", "cycles", "lower"},
	{"flush_call_p95_cycles", "cycles", "lower"},
	{"responder_cycles_per_shootdown", "cycles", "lower"},
}

// perLayer are printed with --trace 1.
var perLayer = []metricDef{
	{"runtime.host_share", "ratio", "lower"},
	{"sim.host_share", "ratio", "lower"},
	{"kernel.host_share", "ratio", "lower"},
	{"core.host_share", "ratio", "lower"},
	{"smp.host_share", "ratio", "lower"},
	{"apic.host_share", "ratio", "lower"},
	{"tlb.host_share", "ratio", "lower"},
	{"cache.host_share", "ratio", "lower"},
	{"mm.host_share", "ratio", "lower"},
	{"pagetable.host_share", "ratio", "lower"},
	{"mach.host_share", "ratio", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_count", "count", "lower"},
	{"syscalls.madvise_cycles_mean", "cycles", "lower"},
	{"syscalls.munmap_cycles_mean", "cycles", "lower"},
	{"syscalls.mmap_cycles_mean", "cycles", "lower"},
	{"syscalls.fdatasync_cycles_mean", "cycles", "lower"},
	{"kernel.touch_cycles_mean", "cycles", "lower"},
	{"tlb.miss_ratio", "ratio", "lower"},
	{"tlb.pwc_hit_ratio", "ratio", "higher"},
	{"tlb.selective_flushes", "count", "lower"},
	{"tlb.full_flushes", "count", "lower"},
	{"kernel.interrupted_cycles", "cycles", "lower"},
	{"kernel.irqs_handled", "count", "lower"},
	{"kernel.deferred_flushes", "count", "lower"},
	{"kernel.full_user_flushes", "count", "lower"},
	{"core.shootdowns", "count", "lower"},
	{"core.remote_selective", "count", "lower"},
	{"core.remote_full", "count", "lower"},
	{"core.remote_skipped", "count", "lower"},
	{"core.batched_skips", "count", "higher"},
	{"core.lazy_skips", "count", "higher"},
	{"core.useful_remote_ratio", "ratio", "higher"},
	{"core.early_ack_suppressed", "count", "lower"},
	{"smp.kicks", "count", "lower"},
	{"smp.kicks_elided", "count", "higher"},
	{"smp.early_acks", "count", "higher"},
	{"smp.late_acks", "count", "lower"},
	{"smp.async_posts", "count", "lower"},
	{"smp.async_coalesce_ratio", "ratio", "higher"},
	{"smp.async_overflows", "count", "lower"},
	{"smp.async_applied_per_drain", "count", "higher"},
	{"smp.async_rekicks", "count", "lower"},
	{"apic.icr_writes_per_shootdown", "count", "lower"},
	{"apic.ipis_delivered", "count", "lower"},
	{"cache.transfers_per_shootdown.d0", "count", "lower"},
	{"cache.transfers_per_shootdown.d1", "count", "lower"},
	{"cache.transfers_per_shootdown.d2", "count", "lower"},
	{"cache.transfers_per_shootdown.d3", "count", "lower"},
	{"sanitizer.redundant_flush_ratio", "ratio", "lower"},
	{"error_rate", "ratio", "lower"},
	{"table3_error_pp", "pp", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.spans", "count", "lower"},
}

// paperTable3Reduction is the paper's initiator latency reduction with
// all four §3 techniques (Table 3: safe mode, 10 PTEs, cross socket), %.
const paperTable3Reduction = 58.0

// window pools the measured windows of one or more worlds.
type window struct {
	cycles, stolen, ops uint64
	calls               [nCallKinds]struct{ n, cycles uint64 }
	samples             []uint64 // flush-call cycles
	d                   map[string]uint64
}

func pool(prs []*probe) window {
	w := window{d: map[string]uint64{}}
	for _, pr := range prs {
		w.cycles += uint64(pr.winEnd - pr.winStart)
		w.stolen += pr.stolen
		w.ops += pr.ops
		for k := range w.calls {
			w.calls[k].n += pr.calls[k].n
			w.calls[k].cycles += pr.calls[k].cycles
		}
		w.samples = append(w.samples, pr.flushSamples...)
		for name, v := range pr.delta() {
			w.d[name] += v
		}
	}
	return w
}

func (w window) callMean(k callKind) float64 { return ratio(w.calls[k].cycles, w.calls[k].n) }

// simMetrics derives every simulated metric of the measured worlds from
// their pooled windows: the end-to-end ones, the per-layer ones, then each
// world's raw counter increments. They are a function of the inputs alone.
func simMetrics(prs []*probe) []metric {
	w := pool(prs)
	d := w.d
	shoot := d["core.Shootdowns"]
	perShoot := func(n uint64) float64 { return ratio(n, shoot) }
	m := []metric{
		{"ops_per_mcycle", float64(w.ops) / (float64(w.cycles) / 1e6)},
		{"flush_call_p50_cycles", quantile(w.samples, 0.50)},
		{"flush_call_p95_cycles", quantile(w.samples, 0.95)},
		{"flush_call_samples", float64(len(w.samples))},
		{"responder_cycles_per_shootdown", perShoot(w.stolen)},
		{"syscalls.madvise_cycles_mean", w.callMean(callMadvise)},
		{"syscalls.munmap_cycles_mean", w.callMean(callMunmap)},
		{"syscalls.mmap_cycles_mean", w.callMean(callMMap)},
		{"syscalls.fdatasync_cycles_mean", w.callMean(callFdatasync)},
		{"kernel.touch_cycles_mean", w.callMean(callTouch)},
		{"tlb.miss_ratio", ratio(d["tlb.Misses"], d["tlb.Hits"]+d["tlb.Misses"])},
		{"tlb.pwc_hit_ratio", ratio(d["tlb.PWCHits"], d["tlb.PWCHits"]+d["tlb.PWCMisses"])},
		{"tlb.selective_flushes", float64(d["tlb.SelectiveFlushes"])},
		{"tlb.full_flushes", float64(d["tlb.FullFlushes"])},
		{"kernel.interrupted_cycles", float64(d["kernel.Interrupted"])},
		{"kernel.irqs_handled", float64(d["kernel.IRQsHandled"])},
		{"kernel.deferred_flushes", float64(d["kernel.DeferredFlushes"])},
		{"kernel.full_user_flushes", float64(d["kernel.FullUserFlushes"])},
		{"core.shootdowns", float64(shoot)},
		{"core.remote_selective", float64(d["core.RemoteSelective"])},
		{"core.remote_full", float64(d["core.RemoteFull"])},
		{"core.remote_skipped", float64(d["core.RemoteSkipped"])},
		{"core.batched_skips", float64(d["core.BatchedSkips"])},
		{"core.lazy_skips", float64(d["core.LazySkips"])},
		{"core.useful_remote_ratio", ratio(d["core.RemoteSelective"]+d["core.RemoteFull"],
			d["core.RemoteSelective"]+d["core.RemoteFull"]+d["core.RemoteSkipped"])},
		{"core.early_ack_suppressed", float64(d["core.EarlyAckSuppressed"])},
		{"smp.kicks", float64(d["smp.Kicks"])},
		{"smp.kicks_elided", float64(d["smp.KicksElided"])},
		{"smp.early_acks", float64(d["smp.EarlyAcks"])},
		{"smp.late_acks", float64(d["smp.LateAcks"])},
		{"smp.async_posts", float64(d["smp.AsyncPosts"])},
		{"smp.async_coalesce_ratio", ratio(d["smp.AsyncCoalesced"], d["smp.AsyncPosts"])},
		{"smp.async_overflows", float64(d["smp.AsyncOverflows"])},
		{"smp.async_applied_per_drain", ratio(d["smp.AsyncApplied"], d["smp.AsyncDrains"])},
		{"smp.async_rekicks", float64(d["smp.AsyncRekicks"])},
		{"apic.icr_writes_per_shootdown", perShoot(d["apic.ICRWrites"])},
		{"apic.ipis_delivered", float64(d["apic.IPIsDelivered"])},
	}
	for i := 0; i < 4; i++ {
		m = append(m, metric{fmt.Sprintf("cache.transfers_per_shootdown.d%d", i),
			perShoot(d[fmt.Sprintf("cache.TransfersByDist.%d", i)])})
	}
	for i, pr := range prs {
		m = append(m, rawCounters(fmt.Sprintf("window.%d.", i), pr)...)
	}
	return m
}

// rawCounters lists the window's increment of every layer counter, for
// the determinism guard.
func rawCounters(prefix string, pr *probe) []metric {
	out := []metric{{prefix + "cycles", float64(pr.winEnd - pr.winStart)}, {prefix + "stolen", float64(pr.stolen)}}
	for i, a := range pr.after {
		out = append(out, metric{prefix + a.name, float64(a.v - pr.before[i].v)})
	}
	for k := callKind(0); k < nCallKinds; k++ {
		out = append(out, metric{prefix + kindNames[k] + ".calls", float64(pr.calls[k].n)},
			metric{prefix + kindNames[k] + ".cycles", float64(pr.calls[k].cycles)})
	}
	return out
}

func (pr *probe) callMean(k callKind) float64 { return ratio(pr.calls[k].cycles, pr.calls[k].n) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile is the nearest-rank q-quantile of samples.
func quantile(samples []uint64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(math.Ceil(q*float64(len(s))))-1])
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// firstDifference names the first metric in which got differs from want.
func firstDifference(want, got []metric) string {
	for i := range want {
		if i >= len(got) || got[i].name != want[i].name {
			return fmt.Sprintf("metric list differs at %q", want[i].name)
		}
		if got[i].v != want[i].v && !(math.IsNaN(got[i].v) && math.IsNaN(want[i].v)) {
			return fmt.Sprintf("%s: %v then %v", want[i].name, want[i].v, got[i].v)
		}
	}
	if len(got) != len(want) {
		return "metric list lengths differ"
	}
	return ""
}
