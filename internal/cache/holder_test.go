package cache

import (
	"math/rand"
	"testing"

	"shootdown/internal/mach"
)

// bruteNearest and bruteFarthest are the member-by-member holder scans
// the directory used before its range queries: the reference the range
// form must match on every topology and sharer set.
func bruteNearest(topo mach.Topology, cpu mach.CPU, holders mach.CPUMask) mach.Distance {
	best := mach.DistCross
	for _, h := range holders.CPUs() {
		if d := topo.DistanceBetween(cpu, h); d < best {
			best = d
		}
	}
	return best
}

func bruteFarthest(topo mach.Topology, cpu mach.CPU, holders mach.CPUMask) mach.Distance {
	worst := mach.DistSelf
	for _, h := range holders.Without(cpu).CPUs() {
		if d := topo.DistanceBetween(cpu, h); d > worst {
			worst = d
		}
	}
	return worst
}

// TestHolderDistanceMatchesBruteForce checks nearestHolder and
// farthestHolder against the brute-force scans over random sharer sets:
// the empty set, sets holding the querying CPU, sets clustered on one
// core or socket, and sets with members on 64-CPU word boundaries.
func TestHolderDistanceMatchesBruteForce(t *testing.T) {
	for _, spec := range []string{"56", "512", "1024", "2x4x1"} {
		topo, err := mach.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := New(topo, mach.DefaultCosts())
		n := topo.NumCPUs()
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 3000; trial++ {
			cpu := mach.CPU(rng.Intn(n))
			var holders mach.CPUMask
			switch trial % 6 {
			case 0: // empty, or cpu alone
				if rng.Intn(2) == 0 {
					holders.Set(cpu)
				}
			case 1: // near cpu: its own core and socket
				slo, shi := topo.SocketRange(cpu)
				for i := rng.Intn(4); i >= 0; i-- {
					holders.Set(slo + mach.CPU(rng.Intn(int(shi-slo))))
				}
			case 2: // word boundaries
				for i := rng.Intn(4); i >= 0; i-- {
					w := 64 * (1 + rng.Intn((n+63)/64))
					for _, c := range []int{w - 1, w} {
						if c < n {
							holders.Set(mach.CPU(c))
						}
					}
				}
			case 3: // cpu plus its SMT siblings only
				clo, chi := topo.CoreRange(cpu)
				for c := clo; c < chi; c++ {
					if rng.Intn(2) == 0 {
						holders.Set(c)
					}
				}
			default: // sparse or dense random sets anywhere
				k := 1 + rng.Intn(8)
				if trial%12 == 5 {
					k = n / 2
				}
				for i := 0; i < k; i++ {
					holders.Set(mach.CPU(rng.Intn(n)))
				}
			}
			if rng.Intn(3) == 0 {
				holders.Set(cpu)
			}
			if got, want := d.nearestHolder(cpu, holders), bruteNearest(topo, cpu, holders); got != want {
				t.Fatalf("%s: nearestHolder(%d, %v) = %v, brute force %v", spec, cpu, holders, got, want)
			}
			if got, want := d.farthestHolder(cpu, holders), bruteFarthest(topo, cpu, holders); got != want {
				t.Fatalf("%s: farthestHolder(%d, %v) = %v, brute force %v", spec, cpu, holders, got, want)
			}
		}
	}
}

// wideLine returns a directory on the 512-CPU machine and a line every
// CPU has read once, so the last read left 512 sharers.
func wideLine(tb testing.TB) (*Directory, *Line, int) {
	topo, err := mach.ScaleTopology(512)
	if err != nil {
		tb.Fatal(err)
	}
	d := New(topo, mach.DefaultCosts())
	l := d.NewLine("mm_gen")
	n := topo.NumCPUs()
	for c := 0; c < n; c++ {
		d.Read(mach.CPU(c), l)
	}
	return d, l, n
}

// TestWideLineAccessAllocatesNothing pins the directory's hot path at
// zero allocations: a write to a line with 512 sharers, then a read by
// every CPU until it has 512 sharers again.
func TestWideLineAccessAllocatesNothing(t *testing.T) {
	d, l, n := wideLine(t)
	if got := l.sharers.Count(); got != n {
		t.Fatalf("line has %d sharers, want %d", got, n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		d.Write(7, l)
		for c := 0; c < n; c++ {
			d.Read(mach.CPU(c), l)
		}
	})
	if allocs != 0 {
		t.Fatalf("write + %d reads of a wide line allocated %v times per run", n, allocs)
	}
}

// BenchmarkDirectoryReadWide measures the read miss of the mm-generation
// pattern on the 512-CPU machine: every CPU reads the line in turn, so
// each read joins a sharer set that grows to 512, and one write per round
// of 512 reads invalidates them all.
func BenchmarkDirectoryReadWide(b *testing.B) {
	d, l, n := wideLine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := i % n
		if c == 0 {
			d.Write(0, l)
			continue
		}
		d.Read(mach.CPU(c), l)
	}
}
