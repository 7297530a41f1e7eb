package smp

import (
	"fmt"
	"testing"
)

// coalesceSound is the in-ring coalescing contract: whenever
// canCoalesce(prev, next) holds, mergeInval leaves the entry either Full
// or covering both inputs' [Start, End), with GenHi advanced to next's.
// It returns nil when the pair does not coalesce.
func coalesceSound(l *Layer, prev, next Inval) error {
	if !canCoalesce(&prev, &next) {
		return nil
	}
	merged := prev
	l.mergeInval(&merged, &next)
	if merged.GenHi != next.GenHi {
		return fmt.Errorf("merged GenHi = %d, want next's %d (prev %+v, next %+v)", merged.GenHi, next.GenHi, prev, next)
	}
	if merged.Full {
		return nil
	}
	lo, hi := min(prev.Start, next.Start), max(prev.End, next.End)
	if merged.Start > lo || merged.End < hi {
		return fmt.Errorf("merged [%#x, %#x) does not cover [%#x, %#x) (prev %+v, next %+v)", merged.Start, merged.End, lo, hi, prev, next)
	}
	return nil
}

// coalesceSeed builds a fuzz input pair. prev covers generations 3..4;
// next starts at nextGenLo, so 5 makes the run contiguous.
func coalesceSeed(pStart, pEnd, nStart, nEnd, nextGenLo uint64, pFull, nFull bool) (Inval, Inval) {
	prev := Inval{ASID: 1, Start: pStart, End: pEnd, Stride: 4096, GenLo: 3, GenHi: 4, Full: pFull}
	next := Inval{ASID: 1, Start: nStart, End: nEnd, Stride: 4096, GenLo: nextGenLo, GenHi: nextGenLo + 2, Full: nFull}
	return prev, next
}

// shrinkSeed is the pair the broken coalescing variant gets wrong: next
// lies inside prev and ends below it.
var shrinkSeed = [...]uint64{0x1000, 0x5000, 0x2000, 0x3000, 5}

func FuzzCoalesce(f *testing.F) {
	f.Add(uint64(0x1000), uint64(0x2000), uint64(0x2000), uint64(0x3000), uint64(5), false, false) // adjacent
	f.Add(uint64(0x2000), uint64(0x3000), uint64(0x1000), uint64(0x4000), uint64(5), false, false) // next covers prev
	f.Add(shrinkSeed[0], shrinkSeed[1], shrinkSeed[2], shrinkSeed[3], shrinkSeed[4], false, false) // next.End < prev.End
	f.Add(uint64(0x1000), uint64(0x2000), uint64(0x1800), uint64(0x2800), uint64(5), true, false)  // full prev absorbs
	f.Add(uint64(0x1000), uint64(0x2000), uint64(0x1000), uint64(0x2000), uint64(5), false, true)  // full next: no merge
	f.Add(uint64(0x1000), uint64(0x2000), uint64(0x2000), uint64(0x3000), uint64(7), false, false) // generation gap
	f.Fuzz(func(t *testing.T, pStart, pEnd, nStart, nEnd, nextGenLo uint64, pFull, nFull bool) {
		prev, next := coalesceSeed(pStart, pEnd, nStart, nEnd, nextGenLo, pFull, nFull)
		if err := coalesceSound(&Layer{}, prev, next); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBrokenCoalesceFailsShrinkSeed proves the property has teeth: on a
// layer with the broken coalescing variant planted, the checked-in seed
// whose next entry ends below prev must fail it.
func TestBrokenCoalesceFailsShrinkSeed(t *testing.T) {
	prev, next := coalesceSeed(shrinkSeed[0], shrinkSeed[1], shrinkSeed[2], shrinkSeed[3], shrinkSeed[4], false, false)
	if err := coalesceSound(&Layer{}, prev, next); err != nil {
		t.Fatalf("sound layer fails the shrink seed: %v", err)
	}
	if coalesceSound(&Layer{brokenCoalesce: true}, prev, next) == nil {
		t.Fatal("broken coalescing passed the shrink seed: the property cannot convict a coverage loss")
	}
}
