package tlb

import (
	"testing"
	"testing/quick"

	"shootdown/internal/pagetable"
)

func small() *TLB {
	return New(Config{Cap4K: 8, Cap2M: 4, PWCSize: 4})
}

func e4(va, frame uint64) Entry {
	return Entry{VA: va, Frame: frame, Size: pagetable.Size4K, Flags: pagetable.Present | pagetable.User}
}

func TestFillLookup(t *testing.T) {
	tl := small()
	tl.Fill(1, e4(0x1000, 7))
	e, ok := tl.Lookup(1, 0x1234)
	if !ok || e.Frame != 7 {
		t.Fatalf("lookup = %+v %v", e, ok)
	}
	if _, ok := tl.Lookup(2, 0x1234); ok {
		t.Fatal("entry visible under wrong PCID")
	}
	if _, ok := tl.Lookup(1, 0x2000); ok {
		t.Fatal("unexpected hit")
	}
	s := tl.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Fills != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGlobalEntriesMatchAnyPCID(t *testing.T) {
	tl := small()
	g := e4(0xffff800000001000, 9)
	g.Global = true
	tl.Fill(1, g)
	if _, ok := tl.Lookup(2, 0xffff800000001000); !ok {
		t.Fatal("global entry did not match other PCID")
	}
	tl.FlushPCID(2)
	if _, ok := tl.Lookup(3, 0xffff800000001000); !ok {
		t.Fatal("global entry lost in PCID flush")
	}
	tl.FlushAllNonGlobal()
	if _, ok := tl.Lookup(3, 0xffff800000001000); !ok {
		t.Fatal("global entry lost in non-global full flush")
	}
	tl.FlushEverything()
	if _, ok := tl.Lookup(3, 0xffff800000001000); ok {
		t.Fatal("global entry survived FlushEverything")
	}
}

func Test2MEntries(t *testing.T) {
	tl := small()
	tl.Fill(1, Entry{VA: pagetable.PageSize2M, Frame: 512, Size: pagetable.Size2M, Flags: pagetable.Present})
	e, ok := tl.Lookup(1, pagetable.PageSize2M+0x12345)
	if !ok || e.Size != pagetable.Size2M {
		t.Fatalf("2M lookup = %+v %v", e, ok)
	}
	tl.FlushPage(1, pagetable.PageSize2M+0x1000)
	if _, ok := tl.Lookup(1, pagetable.PageSize2M); ok {
		t.Fatal("2M entry survived covering FlushPage")
	}
}

func TestFlushPage(t *testing.T) {
	tl := small()
	tl.Fill(1, e4(0x1000, 1))
	tl.Fill(1, e4(0x2000, 2))
	tl.FlushPage(1, 0x1000)
	if _, ok := tl.Lookup(1, 0x1000); ok {
		t.Fatal("flushed page still present")
	}
	if _, ok := tl.Lookup(1, 0x2000); !ok {
		t.Fatal("unrelated page was flushed")
	}
	if tl.Stats().SelectiveFlushes != 1 {
		t.Fatalf("selective flush count = %d", tl.Stats().SelectiveFlushes)
	}
}

func TestFlushPCIDSelective(t *testing.T) {
	tl := small()
	tl.Fill(1, e4(0x1000, 1))
	tl.Fill(2, e4(0x1000, 2))
	tl.FlushPCID(1)
	if _, ok := tl.Lookup(1, 0x1000); ok {
		t.Fatal("PCID 1 entry survived")
	}
	if _, ok := tl.Lookup(2, 0x1000); !ok {
		t.Fatal("PCID 2 entry was dropped")
	}
}

func TestCapacityEviction(t *testing.T) {
	tl := small() // cap 8
	for i := uint64(0); i < 10; i++ {
		tl.Fill(1, e4(0x1000*(i+1), i+1))
	}
	if tl.Len() != 8 {
		t.Fatalf("Len = %d, want 8 (capacity)", tl.Len())
	}
	// FIFO: the first two fills must be gone.
	if _, ok := tl.Lookup(1, 0x1000); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := tl.Lookup(1, 0xa000); !ok {
		t.Fatal("newest entry missing")
	}
	if tl.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", tl.Stats().Evictions)
	}
}

func TestRefillSameKeyNoEvict(t *testing.T) {
	tl := small()
	for i := 0; i < 20; i++ {
		tl.Fill(1, e4(0x1000, uint64(i)))
	}
	if tl.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tl.Len())
	}
	if tl.Stats().Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", tl.Stats().Evictions)
	}
	e, _ := tl.Lookup(1, 0x1000)
	if e.Frame != 19 {
		t.Fatalf("frame = %d, want latest", e.Frame)
	}
}

func TestFractureRule(t *testing.T) {
	cfg := Config{Cap4K: 8, Cap2M: 4, PWCSize: 4, FractureRule: true}
	tl := New(cfg)
	tl.Fill(1, e4(0x1000, 1))
	fr := e4(0x2000, 2)
	fr.Fractured = true
	tl.Fill(1, fr)
	if !tl.Fractured() {
		t.Fatal("fracture flag not set")
	}
	// Selective flush of an unrelated address escalates to a full flush.
	tl.FlushPage(1, 0x9000)
	if tl.Len() != 0 {
		t.Fatalf("Len = %d after escalated flush, want 0", tl.Len())
	}
	if tl.Stats().FractureEscalations != 1 {
		t.Fatalf("escalations = %d", tl.Stats().FractureEscalations)
	}
	if tl.Fractured() {
		t.Fatal("fracture flag survived full flush")
	}
	// With the rule disabled, fractured fills do not escalate.
	tl2 := small()
	tl2.Fill(1, fr)
	tl2.Fill(1, e4(0x1000, 1))
	tl2.FlushPage(1, 0x9000)
	if tl2.Len() != 2 {
		t.Fatalf("non-VM TLB escalated: len=%d", tl2.Len())
	}
}

func TestPageWalkCache(t *testing.T) {
	tl := small()
	if tl.WalkCacheLookup(0x1000) {
		t.Fatal("cold PWC hit")
	}
	if !tl.WalkCacheLookup(0x2000) {
		t.Fatal("same 2M region should hit PWC")
	}
	if tl.WalkCacheLookup(5 * pagetable.PageSize2M) {
		t.Fatal("different region hit")
	}
	tl.InvalidateWalkCache()
	if tl.WalkCacheLookup(0x1000) {
		t.Fatal("PWC hit after invalidate")
	}
	s := tl.Stats()
	if s.PWCHits != 1 || s.PWCMisses != 3 {
		t.Fatalf("pwc stats = %+v", s)
	}
}

func TestPWCCapacity(t *testing.T) {
	tl := small() // PWC size 4
	for i := uint64(0); i < 6; i++ {
		tl.WalkCacheLookup(i * pagetable.PageSize2M)
	}
	// Oldest region evicted.
	if tl.WalkCacheLookup(0) {
		t.Fatal("evicted PWC region still hits")
	}
	if !tl.WalkCacheLookup(5 * pagetable.PageSize2M) {
		t.Fatal("recent region missing")
	}
}

// Property: after FlushPCID(p), no lookup under p hits (non-global), and
// entries of other PCIDs are intact.
func TestFlushPCIDProperty(t *testing.T) {
	f := func(vas []uint16, flushPCID uint8) bool {
		tl := New(Config{Cap4K: 4096, Cap2M: 64, PWCSize: 16})
		type fillRec struct {
			pcid PCID
			va   uint64
		}
		var fills []fillRec
		for i, v := range vas {
			pcid := PCID(v%3 + 1)
			va := (uint64(v) << pagetable.PageShift4K)
			tl.Fill(pcid, e4(va, uint64(i+1)))
			fills = append(fills, fillRec{pcid, va})
		}
		target := PCID(flushPCID%3 + 1)
		tl.FlushPCID(target)
		for _, f := range fills {
			_, ok := tl.Lookup(f.pcid, f.va)
			if f.pcid == target && ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len never exceeds capacity.
func TestCapacityProperty(t *testing.T) {
	f := func(vas []uint16) bool {
		tl := New(Config{Cap4K: 16, Cap2M: 4, PWCSize: 4})
		for i, v := range vas {
			if v%5 == 0 {
				tl.Fill(1, Entry{VA: uint64(v>>3) * pagetable.PageSize2M, Frame: uint64(i), Size: pagetable.Size2M})
			} else {
				tl.Fill(1, e4(uint64(v)<<pagetable.PageShift4K, uint64(i)))
			}
			if tl.Len() > 20 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fifoModel is the eviction reference: every fill appends a slot that is
// never dropped, and an eviction pops slots until one still names the
// key's latest fill — the untrimmed ring discipline.
type fifoModel struct {
	cap   int
	live  map[entryKey]uint64 // key -> seq of its latest fill
	slots []ringSlot
	seq   uint64
}

func (m *fifoModel) fill(key entryKey) {
	m.seq++
	if _, ok := m.live[key]; !ok && len(m.live) >= m.cap {
		for {
			s := m.slots[0]
			m.slots = m.slots[1:]
			if seq, ok := m.live[s.key]; ok && seq == s.seq {
				delete(m.live, s.key)
				break
			}
		}
	}
	m.live[key] = m.seq
	m.slots = append(m.slots, ringSlot{key, m.seq})
}

// TestFlushHeavyRingStaysBounded: a fill/flush loop that never reaches
// capacity (so evict never runs) must not grow the FIFO ring without
// bound, and trimming the stale slots must leave eviction order exactly
// that of the untrimmed ring.
func TestFlushHeavyRingStaysBounded(t *testing.T) {
	tl := small()
	model := &fifoModel{cap: 8, live: map[entryKey]uint64{}}
	x := uint64(12345)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	maxRing := 0
	for i := 0; i < 20_000; i++ {
		pcid := PCID(1 + rnd(2))
		va := rnd(24) << pagetable.PageShift4K
		key := entryKey{pcid, vpn4k(va)}
		tl.Fill(pcid, e4(va, 1+uint64(i)))
		model.fill(key)
		// Flush-heavy phase: drop what was just filled, keeping the TLB
		// far below capacity; later, let capacity evictions run too.
		if i < 10_000 || rnd(3) == 0 {
			tl.FlushPage(pcid, va)
			delete(model.live, key)
		}
		if n := len(tl.ring4k); n > maxRing {
			maxRing = n
		}
		if tl.Len() != len(model.live) {
			t.Fatalf("step %d: TLB holds %d entries, model %d", i, tl.Len(), len(model.live))
		}
		for k := range model.live {
			if _, ok := tl.e4k[k]; !ok {
				t.Fatalf("step %d: model entry %+v missing from TLB: eviction order diverged", i, k)
			}
		}
	}
	if limit := 2*8 + ringSlack + 1; maxRing > limit {
		t.Fatalf("ring grew to %d slots, want <= %d", maxRing, limit)
	}
	if tl.Stats().Evictions == 0 {
		t.Fatal("no capacity eviction ran; the order check was vacuous")
	}
}
