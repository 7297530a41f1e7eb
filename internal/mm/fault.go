package mm

import (
	"fmt"

	"shootdown/internal/pagetable"
)

// Access is the type of memory access that faulted.
type Access uint8

const (
	// AccessRead is a load.
	AccessRead Access = iota
	// AccessWrite is a store.
	AccessWrite
	// AccessExec is an instruction fetch.
	AccessExec
)

// FaultKind classifies how a page fault was resolved.
type FaultKind uint8

const (
	// FaultPopulate installed a fresh PTE (demand paging).
	FaultPopulate FaultKind = iota
	// FaultCoW broke a copy-on-write mapping: the PTE now points at a new
	// private copy, so any cached translation of the old PTE is stale and
	// harmful (paper §4.1).
	FaultCoW
	// FaultMkWrite upgraded a clean shared-file PTE to writable+dirty.
	// A stale read-only translation is benign: it re-faults spuriously.
	FaultMkWrite
	// FaultSpurious found a PTE that already permits the access: the
	// faulting CPU held a stale, overly-restrictive translation (e.g.
	// read-only after another thread's mkwrite upgrade). Hardware dropped
	// the faulting entry; nothing to do.
	FaultSpurious
	// FaultNUMAHint hit a ProtNone PTE installed by the NUMA balancer:
	// the hint is consumed (access proceeds); the balancer may migrate
	// the page based on the fault's origin.
	FaultNUMAHint
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultPopulate:
		return "populate"
	case FaultCoW:
		return "cow"
	case FaultMkWrite:
		return "mkwrite"
	case FaultSpurious:
		return "spurious"
	case FaultNUMAHint:
		return "numa-hint"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// FaultResult reports what the fault handler did.
type FaultResult struct {
	// Kind classifies the resolution.
	Kind FaultKind
	// VA is the page-aligned fault address.
	VA uint64
	// Frame is the frame now mapped at VA.
	Frame uint64
	// CopiedPage is set when a page body was copied (CoW break).
	CopiedPage bool
	// StaleHarmful is set when an old cached translation of VA would
	// translate to wrong physical memory; the handler must ensure it is
	// purged (the flush the CoW optimization avoids by other means).
	StaleHarmful bool
	// Executable is set when the new PTE is executable; the CoW write
	// trick must not be used then, since it cannot purge ITLB entries
	// (paper §4.1).
	Executable bool
	// Huge is set when a 2 MiB page was installed.
	Huge bool
}

// HandleFault resolves a page fault at va for the given access type. It
// mutates page tables and page-cache state only; the kernel layer charges
// costs and performs TLB maintenance based on the result.
func (as *AddressSpace) HandleFault(va uint64, access Access) (FaultResult, error) {
	v := as.vmas.find(va)
	if v == nil {
		return FaultResult{}, fmt.Errorf("%w: %#x", ErrNoVMA, va)
	}
	switch access {
	case AccessWrite:
		if !v.Prot.Has(ProtWrite) {
			return FaultResult{}, fmt.Errorf("%w: write to %s VMA at %#x", ErrProt, v.Prot, va)
		}
	case AccessExec:
		if !v.Prot.Has(ProtExec) {
			return FaultResult{}, fmt.Errorf("%w: exec of %s VMA at %#x", ErrProt, v.Prot, va)
		}
	default:
		if !v.Prot.Has(ProtRead) {
			return FaultResult{}, fmt.Errorf("%w: read of %s VMA at %#x", ErrProt, v.Prot, va)
		}
	}

	page := va &^ (pagetable.PageSize4K - 1)
	pte, size, mapped := as.PT.Probe(page)
	if !mapped {
		if v.HugePages {
			return as.populateHuge(v, va, access)
		}
		return as.populate(v, page, access)
	}
	if size == pagetable.Size2M {
		page = va &^ uint64(pagetable.PageSize2M-1)
	}
	// NUMA balancing hint: consume it and let the access proceed; the
	// balancer decides about migration from the fault notification.
	if pte.Flags.Has(pagetable.ProtNone) {
		must(as.PT.ClearFlags(page, pagetable.ProtNone))
		return FaultResult{Kind: FaultNUMAHint, VA: page, Frame: pte.Frame, Huge: size == pagetable.Size2M}, nil
	}
	// Present PTE: a write to a write-protected page is CoW or dirty
	// tracking; anything else is a spurious fault caused by a stale,
	// overly-restrictive TLB entry (another thread upgraded the PTE
	// without a shootdown, which is legal for permission additions).
	if access == AccessWrite && !pte.Flags.Has(pagetable.Write) {
		return as.writeProtFault(v, page, pte)
	}
	return FaultResult{Kind: FaultSpurious, VA: page, Frame: pte.Frame}, nil
}

// populate installs the first PTE for page.
func (as *AddressSpace) populate(v *VMA, page uint64, access Access) (FaultResult, error) {
	flags := pagetable.User | pagetable.Accessed
	if !v.Prot.Has(ProtExec) {
		flags |= pagetable.NX
	}
	res := FaultResult{Kind: FaultPopulate, VA: page, Executable: v.Prot.Has(ProtExec)}
	switch v.Kind {
	case Anon:
		res.Frame = as.alloc.Alloc()
		if v.Prot.Has(ProtWrite) {
			flags |= pagetable.Write
		}
		if access == AccessWrite {
			flags |= pagetable.Dirty
		}
	case FileShared:
		idx := v.fileOffsetOf(page) / pagetable.PageSize4K
		res.Frame = v.File.frame(idx)
		if access == AccessWrite {
			// do_shared_fault + page_mkwrite in one step.
			flags |= pagetable.Write | pagetable.Dirty
			v.File.MarkDirty(idx)
		}
	case FilePrivate:
		idx := v.fileOffsetOf(page) / pagetable.PageSize4K
		if access == AccessWrite {
			// do_cow_fault: copy immediately.
			_ = v.File.frame(idx) // ensure the source is in the page cache
			res.Frame = as.alloc.Alloc()
			res.CopiedPage = true
			flags |= pagetable.Write | pagetable.Dirty
		} else {
			// Map the page cache read-only; CoW on a later write.
			res.Frame = v.File.frame(idx)
		}
	}
	if err := as.PT.Map(page, res.Frame, pagetable.Size4K, flags); err != nil {
		return FaultResult{}, err
	}
	return res, nil
}

// writeProtFault handles a store hitting a present, write-protected PTE:
// either a CoW break (private mappings) or dirty tracking (shared file).
func (as *AddressSpace) writeProtFault(v *VMA, page uint64, pte pagetable.PTE) (FaultResult, error) {
	if v.Kind == Anon && !as.sharedAnon.Shared(pte.Frame) {
		// Sole owner of the anon page (e.g. write-protected by an
		// mprotect round-trip): reuse it, as do_wp_page's reuse path does.
		if err := as.PT.SetFlags(page, pagetable.Write|pagetable.Dirty|pagetable.Accessed); err != nil {
			return FaultResult{}, err
		}
		return FaultResult{Kind: FaultMkWrite, VA: page, Frame: pte.Frame, Executable: v.Prot.Has(ProtExec)}, nil
	}
	switch v.Kind {
	case FilePrivate, Anon:
		// CoW break: private file pages after a read fault mapped the
		// page cache read-only, or anonymous pages shared by KSM
		// deduplication.
		newFrame := as.alloc.Alloc()
		flags := pagetable.User | pagetable.Accessed | pagetable.Write | pagetable.Dirty
		if !v.Prot.Has(ProtExec) {
			flags |= pagetable.NX
		}
		if err := as.PT.Remap(page, newFrame, flags); err != nil {
			return FaultResult{}, err
		}
		if v.Kind == Anon {
			// Breaking away from a KSM-shared frame drops one reference.
			as.releaseAnonFrame(pte.Frame, pagetable.Size4K)
		}
		return FaultResult{
			Kind: FaultCoW, VA: page, Frame: newFrame,
			CopiedPage: true, StaleHarmful: true,
			Executable: v.Prot.Has(ProtExec),
		}, nil
	case FileShared:
		idx := v.fileOffsetOf(page) / pagetable.PageSize4K
		if err := as.PT.SetFlags(page, pagetable.Write|pagetable.Dirty|pagetable.Accessed); err != nil {
			return FaultResult{}, err
		}
		v.File.MarkDirty(idx)
		return FaultResult{Kind: FaultMkWrite, VA: page, Frame: pte.Frame, Executable: v.Prot.Has(ProtExec)}, nil
	}
	return FaultResult{}, fmt.Errorf("mm: unhandled write-protect fault at %#x", page)
}

// FilePageVAs returns the virtual addresses in this address space mapping
// file page idx (the simplified reverse map used by writeback).
func (as *AddressSpace) FilePageVAs(file *File, idx uint64) []uint64 {
	var out []uint64
	off := idx * pagetable.PageSize4K
	for _, v := range as.vmas.all() {
		if v.File != file {
			continue
		}
		if off < v.FileOff || off >= v.FileOff+(v.End-v.Start) {
			continue
		}
		out = append(out, v.Start+(off-v.FileOff))
	}
	return out
}

// WriteProtectPage clears Write+Dirty on a present PTE (writeback path).
// It reports whether the PTE changed (and thus needs flushing).
func (as *AddressSpace) WriteProtectPage(va uint64) bool {
	pte, _, mapped := as.PT.Probe(va)
	if !mapped || !pte.Flags.Has(pagetable.Write) {
		return false
	}
	must(as.PT.ClearFlags(va, pagetable.Write|pagetable.Dirty))
	return true
}
