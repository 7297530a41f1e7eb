package pagetable

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestMapWalkUnmap4K(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 42, Size4K, Write|User); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Walk(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frame != 42 || tr.Size != Size4K || tr.VA != 0x1000 {
		t.Fatalf("translation = %+v", tr)
	}
	if !tr.Flags.Has(Present | Write | User) {
		t.Fatalf("flags = %v", tr.Flags)
	}
	if got := tr.PA(0x1234); got != 42<<PageShift4K+0x234 {
		t.Fatalf("PA = %#x", got)
	}
	if tr.Steps != 4 {
		t.Fatalf("steps = %d, want 4", tr.Steps)
	}
	if _, err := pt.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Walk(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("walk after unmap: %v", err)
	}
}

func TestMapWalk2M(t *testing.T) {
	pt := New()
	if err := pt.Map(2*PageSize2M, 512, Size2M, Write); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Walk(2*PageSize2M + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size != Size2M || !tr.Flags.Has(Huge) {
		t.Fatalf("translation = %+v", tr)
	}
	if tr.Steps != 3 {
		t.Fatalf("steps = %d, want 3 for 2M leaf", tr.Steps)
	}
	if got := tr.PA(2*PageSize2M + 0x12345); got != 512<<PageShift4K+0x12345 {
		t.Fatalf("PA = %#x", got)
	}
}

func TestMapErrors(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1001, 1, Size4K, 0); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("misaligned: %v", err)
	}
	if err := pt.Map(MaxVA, 1, Size4K, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := pt.Map(0x1000, 1, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x1000, 2, Size4K, 0); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("double map: %v", err)
	}
	// 4K under an existing 2M leaf fails.
	if err := pt.Map(PageSize2M, 3, Size2M, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(PageSize2M+PageSize4K, 4, Size4K, 0); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("4K under 2M: %v", err)
	}
}

func TestFlagManipulation(t *testing.T) {
	pt := New()
	if err := pt.Map(0x2000, 7, Size4K, Write|User); err != nil {
		t.Fatal(err)
	}
	if err := pt.ClearFlags(0x2000, Write); err != nil {
		t.Fatal(err)
	}
	pte, size, err := pt.Lookup(0x2000)
	if err != nil || size != Size4K {
		t.Fatalf("lookup: %v %v", err, size)
	}
	if pte.Flags.Has(Write) {
		t.Fatal("Write still set after ClearFlags")
	}
	if err := pt.SetFlags(0x2000, Dirty|Accessed); err != nil {
		t.Fatal(err)
	}
	pte, _, _ = pt.Lookup(0x2000)
	if !pte.Flags.Has(Dirty | Accessed) {
		t.Fatal("SetFlags did not apply")
	}
	if err := pt.ClearFlags(0x2000, Present); err == nil {
		t.Fatal("clearing Present must be rejected")
	}
}

func TestRemapForCoW(t *testing.T) {
	pt := New()
	if err := pt.Map(0x3000, 10, Size4K, User); err != nil {
		t.Fatal(err)
	}
	if err := pt.Remap(0x3000, 11, Write|User|Dirty); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Walk(0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frame != 11 || !tr.Flags.Has(Write|Dirty|Present) {
		t.Fatalf("after remap: %+v", tr)
	}
}

func TestFreedTables(t *testing.T) {
	pt := New()
	// Two pages sharing one PT.
	if err := pt.Map(0x1000, 1, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x2000, 2, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages() != 3 { // PDPT + PD + PT
		t.Fatalf("TablePages = %d, want 3", pt.TablePages())
	}
	freed, err := pt.Unmap(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if freed {
		t.Fatal("unmap of first page freed tables while sibling still mapped")
	}
	freed, err = pt.Unmap(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if !freed {
		t.Fatal("unmap of last page did not free tables")
	}
	if pt.TablePages() != 0 {
		t.Fatalf("TablePages = %d after full unmap, want 0", pt.TablePages())
	}
	if pt.LeafCount() != 0 {
		t.Fatalf("LeafCount = %d, want 0", pt.LeafCount())
	}
}

func TestUnmapRange(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 8; i++ {
		if err := pt.Map(0x10000+i*PageSize4K, i+1, Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	removed, freed, err := pt.UnmapRange(0x10000+2*PageSize4K, 0x10000+5*PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 || freed {
		t.Fatalf("removed=%d freed=%v, want 3,false", removed, freed)
	}
	removed, freed, err = pt.UnmapRange(0, MaxVA)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 || !freed {
		t.Fatalf("removed=%d freed=%v, want 5,true", removed, freed)
	}
}

func TestVisitRangeOrder(t *testing.T) {
	pt := New()
	vas := []uint64{0x7000, 0x1000, PageSize2M * 3, 0x5000}
	for i, va := range vas {
		size := Size4K
		if va >= PageSize2M {
			size = Size2M
		}
		if err := pt.Map(va, uint64(i+1), size, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	pt.VisitRange(0, MaxVA, func(tr Translation) { got = append(got, tr.VA) })
	want := []uint64{0x1000, 0x5000, 0x7000, PageSize2M * 3}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
}

func TestVisitRangePartialOverlap(t *testing.T) {
	pt := New()
	if err := pt.Map(PageSize2M, 1, Size2M, 0); err != nil {
		t.Fatal(err)
	}
	var n int
	// Range intersecting the middle of the 2M page must still visit it.
	pt.VisitRange(PageSize2M+0x1000, PageSize2M+0x2000, func(Translation) { n++ })
	if n != 1 {
		t.Fatalf("visited %d leaves, want 1", n)
	}
}

func TestFlagsString(t *testing.T) {
	f := Present | Write | Global
	if got := f.String(); got != "pw---g---" {
		t.Fatalf("String = %q", got)
	}
}

// Property: mapping a set of distinct pages then walking each returns the
// exact frame; unmapping all leaves an empty table with zero table pages.
func TestMapUnmapProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		pt := New()
		seen := map[uint64]uint64{}
		for i, r := range raw {
			va := (uint64(r) % (1 << 30)) &^ (PageSize4K - 1)
			if _, dup := seen[va]; dup {
				continue
			}
			frame := uint64(i + 1)
			if err := pt.Map(va, frame, Size4K, User); err != nil {
				return false
			}
			seen[va] = frame
		}
		for va, frame := range seen {
			tr, err := pt.Walk(va)
			if err != nil || tr.Frame != frame {
				return false
			}
		}
		if pt.LeafCount() != len(seen) {
			return false
		}
		for va := range seen {
			if _, err := pt.Unmap(va); err != nil {
				return false
			}
		}
		return pt.LeafCount() == 0 && pt.TablePages() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAlloc(t *testing.T) {
	a := NewFrameAlloc()
	f1 := a.Alloc()
	f2 := a.Alloc()
	if f1 == 0 || f1 == f2 {
		t.Fatalf("frames not unique/nonzero: %d %d", f1, f2)
	}
	if a.Live() != 2 {
		t.Fatalf("Live = %d", a.Live())
	}
	a.Free(f1)
	if a.Live() != 1 {
		t.Fatalf("Live after free = %d", a.Live())
	}
	if f3 := a.Alloc(); f3 != f1 {
		t.Fatalf("free list not recycled: got %d want %d", f3, f1)
	}
	base := a.AllocContig(512)
	if base == 0 {
		t.Fatal("AllocContig returned 0")
	}
	if a.Live() != 2+512 {
		t.Fatalf("Live = %d", a.Live())
	}
}

// TestNotMappedErrorText: the lazily formatted not-mapped error reads
// exactly as the fmt.Errorf wrapping it replaces and still matches
// ErrNotMapped, from every path that returns it.
func TestNotMappedErrorText(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 1, Size4K, User); err != nil {
		t.Fatal(err)
	}
	const va = 0x7f0000123000
	want := fmt.Errorf("%w: %#x", ErrNotMapped, uint64(va)).Error()
	_, walkErr := pt.Walk(va)
	_, _, lookupErr := pt.Lookup(va)
	_, unmapErr := pt.Unmap(va)
	for name, err := range map[string]error{"Walk": walkErr, "Lookup": lookupErr, "Unmap": unmapErr} {
		if !errors.Is(err, ErrNotMapped) {
			t.Errorf("%s: %v does not match ErrNotMapped", name, err)
		} else if err.Error() != want {
			t.Errorf("%s: error text %q, want %q", name, err, want)
		}
	}
}

// TestFreedTablesAreRecycled: table pages freed by Unmap come back zeroed
// and are reused by the next Map instead of allocating, and the reused
// pages translate exactly like fresh ones.
func TestFreedTablesAreRecycled(t *testing.T) {
	pt := New()
	const base = 0x40000000
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 4; i++ {
			if err := pt.Map(base+i*PageSize4K, 100+i, Size4K, Write|User); err != nil {
				t.Fatal(err)
			}
		}
		if pt.TablePages() != 3 {
			t.Fatalf("round %d: %d table pages, want 3", round, pt.TablePages())
		}
		if round > 0 && len(pt.spare) != 0 {
			t.Fatalf("round %d: %d spare pages left after remapping, want 0", round, len(pt.spare))
		}
		for i := uint64(0); i < 4; i++ {
			tr, err := pt.Walk(base + i*PageSize4K)
			if err != nil || tr.Frame != 100+i {
				t.Fatalf("round %d: walk %d = %+v, %v", round, i, tr, err)
			}
		}
		if _, freed, err := pt.UnmapRange(base, base+4*PageSize4K); err != nil || !freed {
			t.Fatalf("round %d: UnmapRange freed=%v err=%v", round, freed, err)
		}
		if pt.TablePages() != 0 || len(pt.spare) != 3 {
			t.Fatalf("round %d: %d table pages, %d spare; want 0 and 3", round, pt.TablePages(), len(pt.spare))
		}
		for _, n := range pt.spare {
			if *n != (node{}) {
				t.Fatalf("round %d: freed table page is not zero", round)
			}
		}
	}
}

// TestProbeMatchesLookup checks that Probe and Lookup agree on mapped 4K
// and 2M leaves and on holes, and that a Probe miss, unlike Lookup's
// error, allocates nothing.
func TestProbeMatchesLookup(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 42, Size4K, Write|User); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x40000000, 512, Size2M, User); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x1000, 0x40000000, 0x40001000, 0x2000, 0x7f0000123000} {
		pte, size, found := pt.Probe(va)
		lpte, lsize, err := pt.Lookup(va)
		if found != (err == nil) || pte != lpte || size != lsize {
			t.Errorf("%#x: Probe = (%+v, %v, %v), Lookup = (%+v, %v, %v)", va, pte, size, found, lpte, lsize, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { pt.Probe(0x7f0000123000) }); allocs != 0 {
		t.Fatalf("Probe miss allocated %v times", allocs)
	}
}
