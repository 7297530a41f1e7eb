// Package syscalls implements the memory-management system calls the
// paper's workloads exercise — mmap, munmap, mprotect, madvise(DONTNEED),
// msync and fdatasync — on top of the kernel, mm and shootdown layers.
//
// Each call charges realistic entry/exit costs (including the PTI
// trampoline in safe mode), takes mmap_sem, mutates the address space, and
// hands the resulting flush obligation to the shootdown protocol. The
// calls the paper identifies as batching-eligible (§4.2: msync, munmap,
// madvise(MADV_DONTNEED)) mark a batched section when batching is enabled:
// during such a call the thread is guaranteed not to touch user mappings,
// so concurrent initiators may skip IPIs to it and queue deferred flushes,
// which the section executes before the mmap_sem release barrier.
package syscalls

import (
	"shootdown/internal/kernel"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
)

// MMap creates a mapping of length bytes and returns its VMA. No pages are
// populated; first touches fault them in.
func MMap(ctx *kernel.Ctx, length uint64, prot mm.Prot, kind mm.Kind, file *mm.File, off uint64) (*mm.VMA, error) {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	as := ctx.MM()
	lockWrite(ctx, as)
	defer unlockWrite(ctx, as)
	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	return as.MMap(length, prot, kind, file, off)
}

// Munmap removes [start, start+length), flushing all TLBs. Page tables may
// be freed, which suppresses early acknowledgement for this shootdown.
func Munmap(ctx *kernel.Ctx, start, length uint64) error {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	as := ctx.MM()
	lockWrite(ctx, as)
	defer unlockWrite(ctx, as)
	batched := enterBatched(ctx)
	defer exitBatched(ctx, batched)

	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	fr, err := as.Unmap(start, length)
	if err != nil {
		return err
	}
	chargePTEs(ctx, fr.Pages)
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
	return nil
}

// MadviseDontneed drops the pages of [start, start+length), keeping the
// VMA (madvise(MADV_DONTNEED)). This is the syscall the paper's
// microbenchmarks (Figures 5-8) time.
func MadviseDontneed(ctx *kernel.Ctx, start, length uint64) error {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	as := ctx.MM()
	// madvise takes mmap_sem for read; DONTNEED does not change VMAs.
	lockRead(ctx, as)
	defer unlockRead(ctx, as)
	batched := enterBatched(ctx)
	defer exitBatched(ctx, batched)

	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	fr, err := as.MadviseDontneed(start, length)
	if err != nil {
		return err
	}
	chargePTEs(ctx, fr.Pages)
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
	return nil
}

// Mprotect changes the protection of [start, start+length).
func Mprotect(ctx *kernel.Ctx, start, length uint64, prot mm.Prot) error {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	as := ctx.MM()
	lockWrite(ctx, as)
	defer unlockWrite(ctx, as)

	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	fr, err := as.Protect(start, length, prot)
	if err != nil {
		return err
	}
	chargePTEs(ctx, fr.Pages)
	ctx.K.Flusher().FlushAfter(ctx, as, fr)
	return nil
}

// Msync writes back the dirty pages of file within [start, start+length)
// of the calling address space, write-protecting their PTEs and flushing
// TLBs (MS_SYNC semantics for a shared mapping).
func Msync(ctx *kernel.Ctx, start, length uint64) error {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	as := ctx.MM()
	lockRead(ctx, as)
	defer unlockRead(ctx, as)
	batched := enterBatched(ctx)
	defer exitBatched(ctx, batched)

	v := as.FindVMA(start)
	if v == nil || v.File == nil {
		return mm.ErrNoVMA
	}
	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	startIdx := v.FileOff / pagetable.PageSize4K
	endIdx := (v.FileOff + length + pagetable.PageSize4K - 1) / pagetable.PageSize4K
	return writeback(ctx, v.File, startIdx, endIdx)
}

// Fdatasync writes back every dirty page of file mapped by the caller
// (the Sysbench workload's persistence point).
func Fdatasync(ctx *kernel.Ctx, file *mm.File) error {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	as := ctx.MM()
	lockRead(ctx, as)
	defer unlockRead(ctx, as)
	batched := enterBatched(ctx)
	defer exitBatched(ctx, batched)

	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	return writeback(ctx, file, 0, file.Pages())
}

// writeback cleans file's dirty pages in [startIdx, endIdx): each page is
// written to storage, its PTEs in every mapper are write-protected, and a
// single merged flush per mapper covers the changed range.
func writeback(ctx *kernel.Ctx, file *mm.File, startIdx, endIdx uint64) error {
	idxs := file.TakeDirty(startIdx, endIdx)
	if len(idxs) == 0 {
		return nil
	}
	// Storage write: the paper uses emulated persistent memory, so the
	// cost is a page copy per dirty page. The copies run with IRQs
	// enabled — a long writeback must not stall other CPUs' shootdowns.
	ctx.CPU.KernelRun(ctx.P, uint64(len(idxs))*ctx.K.Cost.CopyPage4K)

	for _, mapper := range file.Mappers() {
		// Write-protect the dirty PTEs, then coalesce the cleaned pages
		// into merged runs, as the kernel's clean/record writeback path
		// does with its mmu_gather: random scattered pages produce many
		// small selective shootdowns, while adjacent pages — sequential
		// or not — merge into one.
		pages := make([]mm.FlushRange, 0, len(idxs))
		for _, idx := range idxs {
			for _, va := range mapper.FilePageVAs(file, idx) {
				if !mapper.WriteProtectPage(va) {
					continue
				}
				ctx.P.Delay(ctx.K.Cost.PTEUpdate)
				pages = append(pages, mm.FlushRange{
					Start: va, End: va + pagetable.PageSize4K,
					Stride: pagetable.Size4K, Pages: 1,
				})
			}
		}
		for _, fr := range mm.Coalesce(pages) {
			ctx.K.Flusher().FlushAfter(ctx, mapper, fr)
		}
	}
	return nil
}

func chargePTEs(ctx *kernel.Ctx, n int) {
	ctx.P.Delay(uint64(n) * ctx.K.Cost.PTEUpdate)
}

func lockRead(ctx *kernel.Ctx, as *mm.AddressSpace) {
	ctx.CPU.DownRead(ctx.P, as.MmapSem)
	ctx.P.Delay(ctx.K.Cost.RWSemUncontended)
}

func unlockRead(ctx *kernel.Ctx, as *mm.AddressSpace) {
	as.MmapSem.UpRead(ctx.P)
	ctx.P.Delay(ctx.K.Cost.RWSemUncontended)
}

func lockWrite(ctx *kernel.Ctx, as *mm.AddressSpace) {
	ctx.CPU.DownWrite(ctx.P, as.MmapSem)
	ctx.P.Delay(ctx.K.Cost.RWSemUncontended)
}

func unlockWrite(ctx *kernel.Ctx, as *mm.AddressSpace) {
	as.MmapSem.UpWrite(ctx.P)
	ctx.P.Delay(ctx.K.Cost.RWSemUncontended)
}

// enterBatched begins a §4.2 batched section when the protocol enables it.
func enterBatched(ctx *kernel.Ctx) bool {
	if !ctx.K.Flusher().BatchingEnabled() {
		return false
	}
	ctx.CPU.EnterBatchedSection(ctx.P)
	return true
}

// exitBatched drains queued deferred flushes before the caller releases
// mmap_sem — the paper's piggy-backed memory barrier.
func exitBatched(ctx *kernel.Ctx, batched bool) {
	if batched {
		ctx.CPU.ExitBatchedSection(ctx.P)
	}
}

// Fork clones the calling process's address space copy-on-write and
// returns the child address space (the caller schedules threads onto it).
// Fork write-protects every private writable page in the parent, which
// requires a TLB shootdown to every CPU running the parent — making fork
// itself one of the flush sources §4.1's CoW optimization downstream
// depends on.
func Fork(ctx *kernel.Ctx) (*mm.AddressSpace, error) {
	ctx.EnterSyscall()
	defer ctx.ExitSyscall()
	parent := ctx.MM()
	lockWrite(ctx, parent)
	defer unlockWrite(ctx, parent)

	ctx.P.Delay(ctx.K.Cost.SyscallWork)
	child, fr, st := ctx.K.ForkAddressSpace(parent)
	// Page-table duplication: one PTE write per copied entry, plus the
	// eager copies (huge private pages).
	chargePTEs(ctx, st.PTEs)
	ctx.P.Delay(uint64(st.VMAs) * ctx.K.Cost.VMAFind)
	if st.PagesCopied > 0 {
		ctx.CPU.KernelRun(ctx.P, uint64(st.PagesCopied)*ctx.K.Cost.CopyPage4K)
	}
	if !fr.Empty() {
		ctx.K.Flusher().FlushAfter(ctx, parent, fr)
	}
	return child, nil
}
