package fault

import (
	"math"
	"sync"
	"testing"
)

// TestDecideDeterministic: same (seed, site, index) → same decision, no
// matter how many goroutines compute it or in what order the queries are
// issued. This is the splittable-PRNG contract every repro line rests on.
func TestDecideDeterministic(t *testing.T) {
	const N = 512
	seeds := []uint64{0, 1, 7, 0xdeadbeef, math.MaxUint64}

	type key struct {
		seed  uint64
		site  Site
		index uint64
	}
	want := map[key]uint64{}
	for _, seed := range seeds {
		for site := Site(0); site < NumSites; site++ {
			for i := uint64(0); i < N; i++ {
				want[key{seed, site, i}] = Decide(seed, site, i)
			}
		}
	}

	// Recompute everything from 8 goroutines, each walking the keys in a
	// different order (stride permutation), and compare.
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	strides := []uint64{1, 3, 5, 7, 11, 13, 17, 19}
	for _, stride := range strides {
		wg.Add(1)
		go func(stride uint64) {
			defer wg.Done()
			for _, seed := range seeds {
				for site := Site(0); site < NumSites; site++ {
					for j := uint64(0); j < N; j++ {
						i := (j * stride) % N
						if got := Decide(seed, site, i); got != want[key{seed, site, i}] {
							errs <- "Decide changed across goroutines/order"
							return
						}
					}
				}
			}
		}(stride)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPlaneStreamsIndependent: interleaving queries to other sites must
// not perturb a site's decision stream — the plane's per-site occurrence
// counters implement split streams, not a shared sequence.
func TestPlaneStreamsIndependent(t *testing.T) {
	spec, _ := Preset("heavy")
	solo := New(42, spec)
	var soloDelays []uint64
	for i := 0; i < 200; i++ {
		soloDelays = append(soloDelays, solo.DeliverDelay())
	}

	mixed := New(42, spec)
	var mixedDelays []uint64
	for i := 0; i < 200; i++ {
		// Interleave draws at every other site between delay queries.
		mixed.DropKick()
		mixed.ResponderStall()
		mixed.AckDelay()
		mixed.EvictOnFill()
		mixed.PCIDRecycle()
		mixed.PreemptDelay()
		mixedDelays = append(mixedDelays, mixed.DeliverDelay())
	}

	for i := range soloDelays {
		if soloDelays[i] != mixedDelays[i] {
			t.Fatalf("delay stream perturbed by other sites at index %d: solo=%d mixed=%d",
				i, soloDelays[i], mixedDelays[i])
		}
	}
}

// TestSitesDecorrelated is the chi-squared smoke bound: bucket the draws
// of each site into 16 bins and check uniformity, and check that paired
// draws (same index, adjacent sites) don't co-bucket. Loose thresholds —
// this guards against gross stream aliasing, not statistical perfection.
func TestSitesDecorrelated(t *testing.T) {
	const (
		N    = 4096
		bins = 16
	)
	// Chi-squared with 15 dof: p=0.001 critical value ≈ 37.7. Use 60 as a
	// generous smoke bound.
	const bound = 60.0
	expect := float64(N) / bins

	for site := Site(0); site < NumSites; site++ {
		var counts [bins]int
		for i := uint64(0); i < N; i++ {
			counts[Decide(99, site, i)%bins]++
		}
		chi := 0.0
		for _, c := range counts {
			d := float64(c) - expect
			chi += d * d / expect
		}
		if chi > bound {
			t.Errorf("site %v: chi-squared %.1f > %.1f (non-uniform stream)", site, chi, bound)
		}
	}

	// Cross-site: fraction of indices where two sites land in the same
	// bin should be near 1/bins, not near 1 (which would mean the streams
	// are shifted copies).
	for a := Site(0); a < NumSites; a++ {
		b := (a + 1) % NumSites
		same := 0
		for i := uint64(0); i < N; i++ {
			if Decide(99, a, i)%bins == Decide(99, b, i)%bins {
				same++
			}
		}
		frac := float64(same) / N
		if frac > 3.0/bins {
			t.Errorf("sites %v/%v co-bucket %.3f of the time (correlated streams)", a, b, frac)
		}
	}
}

// TestSeedsDiverge: different seeds give different schedules.
func TestSeedsDiverge(t *testing.T) {
	same := 0
	for i := uint64(0); i < 256; i++ {
		if Decide(1, SiteIPIDelay, i) == Decide(2, SiteIPIDelay, i) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/256 draws", same)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []Spec{
		{},
		{DelayP: 0.25, DelayMax: 1000},
		{DropP: 0.5, DropBurstMax: 3},
		{DropP: 1, NoRetry: true},
		{DelayP: 0.1, DelayMax: 200, StallP: 0.2, StallMax: 4000,
			AckDelayP: 0.05, AckDelayMax: 100, EvictP: 0.01, RecycleP: 0.02,
			PreemptP: 0.3, PreemptMax: 7},
	}
	for _, want := range cases {
		s := want.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("round trip %q: got %+v want %+v", s, got, want)
		}
	}
}

func TestParsePresets(t *testing.T) {
	for _, name := range PresetNames() {
		want, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		got, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) != Preset(%q)", name, name)
		}
	}
	// Preset plus override: later tokens win field-wise.
	got, err := Parse("light,drop=0.9")
	if err != nil {
		t.Fatal(err)
	}
	light, _ := Preset("light")
	light.DropP = 0.9
	if got != light {
		t.Fatalf("preset+override: got %+v want %+v", got, light)
	}
	// noretry composes with a preset.
	got, err = Parse("drop,noretry")
	if err != nil {
		t.Fatal(err)
	}
	if !got.NoRetry || got.DropP != 0.6 {
		t.Fatalf("drop,noretry: got %+v", got)
	}
	if _, ok := Preset("broken"); !ok {
		t.Fatal("broken preset missing")
	}
	if b, _ := Preset("broken"); !b.NoRetry || b.DropP < 1 {
		t.Fatalf("broken preset must be full drop with recovery off: %+v", b)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"bogus",
		"delay",
		"delay=2",
		"delay=-0.1",
		"drop=0.5:100",
		"evict=0.5:100",
		"recycle=0.5:100",
		"dropburst=0",
		"dropburst=x",
		"stall=0.5:abc",
		"frob=0.5",
		"evict=NaN",
		"delay=nan:100",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got none", in)
		}
	}
}

// TestParseDropsInertMagnitudes: a magnitude or burst bound without its
// probability injects nothing and does not survive String, so Parse
// drops it and every accepted spec round-trips.
func TestParseDropsInertMagnitudes(t *testing.T) {
	got, err := Parse("delay=0:5,dropburst=3,stall=0:9,ackdelay=0:7,preempt=0:2")
	if err != nil {
		t.Fatal(err)
	}
	if got != (Spec{}) {
		t.Fatalf("inert magnitudes kept: %+v", got)
	}
	got, err = Parse("dropburst=3,drop=0.5")
	if err != nil || got != (Spec{DropP: 0.5, DropBurstMax: 3}) {
		t.Fatalf("burst bound before its probability: %+v, %v", got, err)
	}
}

func TestSpecZero(t *testing.T) {
	if !(Spec{}).Zero() {
		t.Fatal("zero Spec must be Zero")
	}
	if !(Spec{NoRetry: true}).Zero() {
		t.Fatal("NoRetry alone injects nothing → Zero")
	}
	if (Spec{EvictP: 0.1}).Zero() {
		t.Fatal("EvictP>0 is not Zero")
	}
	if (Spec{}).String() != "none" {
		t.Fatalf("zero Spec renders %q, want none", (Spec{}).String())
	}
}

// TestNilPlane: every site method on a nil plane is a no-op miss, so the
// unfaulted machine pays nothing and branches nowhere.
func TestNilPlane(t *testing.T) {
	var pl *Plane
	if pl.DeliverDelay() != 0 || pl.DropKick() || pl.ResponderStall() != 0 ||
		pl.AckDelay() != 0 || pl.EvictOnFill() || pl.PCIDRecycle() ||
		pl.PreemptDelay() != 0 {
		t.Fatal("nil plane injected something")
	}
	if pl.Active() || pl.RecoveryArmed() {
		t.Fatal("nil plane claims to be active/armed")
	}
	if pl.Stats() != (Stats{}) || pl.Spec() != (Spec{}) || pl.Seed() != 0 {
		t.Fatal("nil plane has state")
	}
}

// TestDropBurstBound: even at DropP=1, at most DropBurstMax consecutive
// kicks are lost before one is force-delivered — the liveness guarantee
// the retry layer's termination proof rests on.
func TestDropBurstBound(t *testing.T) {
	pl := New(7, Spec{DropP: 1, DropBurstMax: 3})
	run := 0
	forced := 0
	for i := 0; i < 100; i++ {
		if pl.DropKick() {
			run++
			if run > 3 {
				t.Fatalf("%d consecutive drops > burst bound 3", run)
			}
		} else {
			forced++
			run = 0
		}
	}
	if forced != 25 {
		t.Fatalf("DropP=1 burst=3: want 25 forced deliveries in 100, got %d", forced)
	}
	st := pl.Stats()
	if st.ForcedDeliveries != 25 || st.Drops != 75 {
		t.Fatalf("stats: %+v", st)
	}

	// Default burst bound applies when DropBurstMax is unset.
	pl = New(7, Spec{DropP: 1})
	run = 0
	for i := 0; i < 50; i++ {
		if pl.DropKick() {
			run++
			if run > DefaultDropBurst {
				t.Fatalf("default burst bound exceeded: %d", run)
			}
		} else {
			run = 0
		}
	}
}

// TestPlaneReplays: two planes with the same (seed, spec) make identical
// decisions; changing the seed changes them.
func TestPlaneReplays(t *testing.T) {
	spec, _ := Preset("heavy")
	a, b := New(5, spec), New(5, spec)
	diffSeed := New(6, spec)
	diverged := false
	for i := 0; i < 300; i++ {
		da, db := a.DeliverDelay(), b.DeliverDelay()
		if da != db || a.DropKick() != b.DropKick() ||
			a.ResponderStall() != b.ResponderStall() || a.AckDelay() != b.AckDelay() ||
			a.EvictOnFill() != b.EvictOnFill() || a.PCIDRecycle() != b.PCIDRecycle() ||
			a.PreemptDelay() != b.PreemptDelay() {
			t.Fatalf("same (seed,spec) diverged at step %d", i)
		}
		if da != diffSeed.DeliverDelay() {
			diverged = true
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if !diverged {
		t.Fatal("different seeds never diverged")
	}
}

// TestMagnitudeBounds: hit magnitudes stay within [1,Max].
func TestMagnitudeBounds(t *testing.T) {
	pl := New(11, Spec{DelayP: 1, DelayMax: 17})
	for i := 0; i < 500; i++ {
		d := pl.DeliverDelay()
		if d < 1 || d > 17 {
			t.Fatalf("delay %d outside [1,17]", d)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Delays: 1, Drops: 2, Stalls: 3, AckDelays: 4, Evictions: 5,
		Recycles: 6, Preempts: 7, ForcedDeliveries: 8}
	b := a
	b.Add(a)
	if b.Delays != 2 || b.ForcedDeliveries != 16 || b.Preempts != 14 {
		t.Fatalf("Add: %+v", b)
	}
}
