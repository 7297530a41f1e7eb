// Package tlb models a per-core translation lookaside buffer with
// process-context identifiers (PCIDs), global entries, separate 4 KiB and
// 2 MiB capacity classes, a page-walk cache, and the Intel "page
// fracturing" behaviour the paper documents in §7/Table 4.
//
// The TLB is purely mechanical: it caches translations and implements the
// x86 invalidation primitives (CR3 write, INVLPG, INVPCID). Deciding *when*
// to invalidate — the shootdown protocol — lives in internal/core; deciding
// walk costs lives in the kernel layer.
package tlb

import "shootdown/internal/pagetable"

// PCID is a process-context identifier tagging TLB entries with their
// address space (x86 allows 4096 of them; Linux uses a small rotation).
type PCID uint16

// Entry is one cached translation.
type Entry struct {
	// VA is the page-aligned virtual address.
	VA uint64
	// Frame is the physical frame number.
	Frame uint64
	// Flags are the leaf PTE flags at fill time.
	Flags pagetable.Flags
	// Size is the cached page size.
	Size pagetable.Size
	// Global marks kernel entries that survive PCID-tagged flushes.
	Global bool
	// Fractured marks an entry produced by a nested walk where the guest
	// page is huge but the host backing is 4 KiB (paper §7): caching any
	// such entry forces the CPU to escalate selective flushes.
	Fractured bool

	seq uint64
}

// Stats counts TLB events.
type Stats struct {
	Hits, Misses     uint64
	Fills, Evictions uint64
	// FullFlushes counts whole-TLB (or whole-PCID) invalidations;
	// SelectiveFlushes counts single-address invalidations;
	// FractureEscalations counts selective flushes escalated to full
	// flushes by the fracture rule.
	FullFlushes, SelectiveFlushes, FractureEscalations uint64
	// PWCHits/PWCMisses count page-walk-cache outcomes reported via
	// WalkCacheLookup.
	PWCHits, PWCMisses uint64
}

type entryKey struct {
	pcid PCID
	vpn  uint64
}

// Config sizes a TLB.
type Config struct {
	// Cap4K and Cap2M bound the number of cached 4 KiB / 2 MiB entries
	// (Skylake-era second-level TLB: 1536 / 32).
	Cap4K, Cap2M int
	// PWCSize bounds the page-walk cache (cached PDE regions).
	PWCSize int
	// FractureRule enables the Intel behaviour where a selective flush
	// becomes a full flush whenever a fractured translation may be cached.
	// Only meaningful when running nested (under the virt package).
	FractureRule bool
}

// DefaultConfig returns a Skylake-like TLB configuration.
func DefaultConfig() Config {
	return Config{Cap4K: 1536, Cap2M: 32, PWCSize: 32}
}

// TLB is one core's translation cache.
type TLB struct {
	cfg Config

	e4k map[entryKey]Entry
	e2m map[entryKey]Entry
	// FIFO rings for eviction; entries removed by flushes are skipped
	// lazily when their seq no longer matches, and dropped in bulk by
	// Fill once they outnumber the live slots (see appendSlot).
	ring4k, ring2m []ringSlot
	head4k, head2m int
	seq            uint64

	// pwc caches upper-level walk state keyed by va>>21 region.
	pwc     map[uint64]uint64 // region -> seq
	pwcRing []uint64
	pwcHead int
	pwcSeq  uint64

	// fractured is set while any fractured entry may be cached. It is a
	// sticky hardware flag: only a full flush clears it.
	fractured bool

	stats Stats
	obs   *Observer
}

// Observer receives notifications about TLB activity. Every callback fires
// after the state change it describes has fully taken effect, so an
// observer can never see a half-applied flush. Callbacks must be purely
// observational: they must not mutate the TLB or advance simulated time,
// or a checked run would diverge from an unchecked one. Nil fields are
// skipped.
type Observer struct {
	// Hit fires on a successful Lookup with the probing PCID and the entry
	// that satisfied it (possibly a global entry under GlobalTag).
	Hit func(pcid PCID, va uint64, e Entry)
	// Fill fires after an entry is inserted, with the tag it was stored
	// under (GlobalTag for global entries).
	Fill func(pcid PCID, e Entry)
	// FlushPage fires after a single-address invalidation; removed counts
	// the entries actually dropped (0 means the flush was redundant).
	FlushPage func(pcid PCID, va uint64, removed int)
	// FlushPCID fires after a full per-PCID invalidation.
	FlushPCID func(pcid PCID, removed int)
	// FlushAll fires after FlushAllNonGlobal (globals=false) or
	// FlushEverything (globals=true), including fracture-rule escalations.
	FlushAll func(globals bool, removed int)
}

// SetObserver installs (or, with nil, removes) the activity observer.
func (t *TLB) SetObserver(o *Observer) { t.obs = o }

type ringSlot struct {
	key entryKey
	seq uint64
}

// New returns an empty TLB.
func New(cfg Config) *TLB {
	if cfg.Cap4K <= 0 || cfg.Cap2M <= 0 {
		panic("tlb: capacities must be positive")
	}
	return &TLB{
		cfg: cfg,
		e4k: make(map[entryKey]Entry),
		e2m: make(map[entryKey]Entry),
		pwc: make(map[uint64]uint64),
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Len returns the number of cached entries (both size classes).
func (t *TLB) Len() int { return len(t.e4k) + len(t.e2m) }

// Fractured reports whether the fracture flag is currently set.
func (t *TLB) Fractured() bool { return t.fractured }

func vpn4k(va uint64) uint64 { return va >> pagetable.PageShift4K }
func vpn2m(va uint64) uint64 { return va >> pagetable.PageShift2M }

// Lookup returns the cached translation for (pcid, va) if present. Global
// entries match under any PCID, as on x86.
func (t *TLB) Lookup(pcid PCID, va uint64) (Entry, bool) {
	if e, ok := t.e2m[entryKey{pcid, vpn2m(va)}]; ok {
		return t.hit(pcid, va, e), true
	}
	if e, ok := t.e4k[entryKey{pcid, vpn4k(va)}]; ok {
		return t.hit(pcid, va, e), true
	}
	// Global entries are stored under their fill PCID but match any; scan
	// the dedicated global space (PCID tag ^0) to keep lookups O(1).
	if e, ok := t.e2m[entryKey{globalSpace, vpn2m(va)}]; ok {
		return t.hit(pcid, va, e), true
	}
	if e, ok := t.e4k[entryKey{globalSpace, vpn4k(va)}]; ok {
		return t.hit(pcid, va, e), true
	}
	t.stats.Misses++
	return Entry{}, false
}

func (t *TLB) hit(pcid PCID, va uint64, e Entry) Entry {
	t.stats.Hits++
	if t.obs != nil && t.obs.Hit != nil {
		t.obs.Hit(pcid, va, e)
	}
	return e
}

// globalSpace is the internal PCID tag for global entries.
const globalSpace PCID = 0xffff

// Fill inserts a translation for pcid. Global entries ignore pcid.
func (t *TLB) Fill(pcid PCID, e Entry) {
	t.seq++
	e.seq = t.seq
	if e.Global {
		pcid = globalSpace
	}
	if e.Fractured {
		t.fractured = true
	}
	t.stats.Fills++
	switch e.Size {
	case pagetable.Size2M:
		key := entryKey{pcid, vpn2m(e.VA)}
		if _, exists := t.e2m[key]; !exists && len(t.e2m) >= t.cfg.Cap2M {
			t.evict(t.e2m, t.ring2m, &t.head2m)
		}
		t.e2m[key] = e
		t.ring2m = appendSlot(t.e2m, t.ring2m, &t.head2m, ringSlot{key, e.seq})
	default:
		key := entryKey{pcid, vpn4k(e.VA)}
		if _, exists := t.e4k[key]; !exists && len(t.e4k) >= t.cfg.Cap4K {
			t.evict(t.e4k, t.ring4k, &t.head4k)
		}
		t.e4k[key] = e
		t.ring4k = appendSlot(t.e4k, t.ring4k, &t.head4k, ringSlot{key, e.seq})
	}
	if t.obs != nil && t.obs.Fill != nil {
		t.obs.Fill(pcid, e)
	}
}

// EvictPage silently drops any cached entries (both size classes, and
// matching global entries) covering (pcid, va) — a spurious conflict
// eviction, injected by the fault plane to model TLB pressure the
// simulator's capacity rings would not produce on their own. Like capacity
// evictions it fires no observer callback: evictions only ever shrink the
// cached set, so no coherence obligation can depend on them.
func (t *TLB) EvictPage(pcid PCID, va uint64) {
	for _, k := range [...]entryKey{
		{pcid, vpn4k(va)}, {globalSpace, vpn4k(va)},
	} {
		if _, ok := t.e4k[k]; ok {
			delete(t.e4k, k)
			t.stats.Evictions++
		}
	}
	for _, k := range [...]entryKey{
		{pcid, vpn2m(va)}, {globalSpace, vpn2m(va)},
	} {
		if _, ok := t.e2m[k]; ok {
			delete(t.e2m, k)
			t.stats.Evictions++
		}
	}
}

func (t *TLB) evict(m map[entryKey]Entry, ring []ringSlot, head *int) {
	for *head < len(ring) {
		slot := ring[*head]
		*head++
		if e, ok := m[slot.key]; ok && e.seq == slot.seq {
			delete(m, slot.key)
			t.stats.Evictions++
			return
		}
	}
}

// ringSlack is the number of slots a ring may hold beyond twice its live
// entries before appendSlot trims it.
const ringSlack = 64

// appendSlot appends slot to ring and returns the ring. Flushes delete
// entries without touching the ring, and evict (the only consumer) never
// runs while flushes keep the TLB under capacity, so appendSlot itself
// keeps the ring bounded: once it holds more than twice the live entries
// plus ringSlack slots, the consumed prefix and the stale slots are
// dropped in place. Every live entry keeps exactly its latest slot and the
// survivors keep their order, so evict — which skips stale slots anyway —
// evicts in the same order.
func appendSlot(m map[entryKey]Entry, ring []ringSlot, head *int, slot ringSlot) []ringSlot {
	if len(ring) > 2*len(m)+ringSlack {
		n := 0
		for _, s := range ring[*head:] {
			if e, ok := m[s.key]; ok && e.seq == s.seq {
				ring[n] = s
				n++
			}
		}
		ring, *head = ring[:n], 0
	}
	return append(ring, slot)
}

// FlushPage implements a single-address invalidation (INVLPG/INVPCID
// single-address semantics): it removes any 4 KiB and 2 MiB entries of the
// PCID covering va, plus matching global entries.
//
// If the fracture rule is enabled and a fractured translation may be
// cached, the flush escalates to a full non-global flush, as observed on
// Intel hardware (paper §7, Table 4).
func (t *TLB) FlushPage(pcid PCID, va uint64) {
	if t.cfg.FractureRule && t.fractured {
		t.stats.FractureEscalations++
		t.FlushAllNonGlobal()
		return
	}
	t.stats.SelectiveFlushes++
	removed := 0
	for _, k := range [...]entryKey{
		{pcid, vpn4k(va)}, {globalSpace, vpn4k(va)},
	} {
		if _, ok := t.e4k[k]; ok {
			delete(t.e4k, k)
			removed++
		}
	}
	for _, k := range [...]entryKey{
		{pcid, vpn2m(va)}, {globalSpace, vpn2m(va)},
	} {
		if _, ok := t.e2m[k]; ok {
			delete(t.e2m, k)
			removed++
		}
	}
	if t.obs != nil && t.obs.FlushPage != nil {
		t.obs.FlushPage(pcid, va, removed)
	}
}

// FlushPCID removes all non-global entries tagged pcid (MOV-to-CR3 without
// NOFLUSH for that PCID, or INVPCID single-context).
func (t *TLB) FlushPCID(pcid PCID) {
	t.stats.FullFlushes++
	removed := 0
	for k := range t.e4k {
		if k.pcid == pcid {
			delete(t.e4k, k)
			removed++
		}
	}
	for k := range t.e2m {
		if k.pcid == pcid {
			delete(t.e2m, k)
			removed++
		}
	}
	// A full flush of an address space also drops fractured entries of
	// that space; since the hardware flag is conservative and global, we
	// clear it only when the whole TLB is emptied of non-globals.
	if t.nonGlobalEmpty() {
		t.fractured = false
	}
	if t.obs != nil && t.obs.FlushPCID != nil {
		t.obs.FlushPCID(pcid, removed)
	}
}

// FlushAllNonGlobal removes every non-global entry regardless of PCID
// (INVPCID all-contexts-retaining-globals).
func (t *TLB) FlushAllNonGlobal() {
	t.stats.FullFlushes++
	removed := 0
	for k := range t.e4k {
		if k.pcid != globalSpace {
			delete(t.e4k, k)
			removed++
		}
	}
	for k := range t.e2m {
		if k.pcid != globalSpace {
			delete(t.e2m, k)
			removed++
		}
	}
	t.fractured = false
	if t.obs != nil && t.obs.FlushAll != nil {
		t.obs.FlushAll(false, removed)
	}
}

// FlushEverything removes all entries including globals (INVPCID
// all-contexts, or CR4.PGE toggle).
func (t *TLB) FlushEverything() {
	t.stats.FullFlushes++
	removed := len(t.e4k) + len(t.e2m)
	clear(t.e4k)
	clear(t.e2m)
	t.fractured = false
	if t.obs != nil && t.obs.FlushAll != nil {
		t.obs.FlushAll(true, removed)
	}
}

func (t *TLB) nonGlobalEmpty() bool {
	for k := range t.e4k {
		if k.pcid != globalSpace {
			return false
		}
	}
	for k := range t.e2m {
		if k.pcid != globalSpace {
			return false
		}
	}
	return true
}

// SnapshotEntry pairs a cached entry with the PCID tag it is stored under
// (GlobalTag for global entries).
type SnapshotEntry struct {
	PCID  PCID
	Entry Entry
}

// GlobalTag is the PCID tag under which global entries appear in
// Snapshot output.
const GlobalTag = globalSpace

// Snapshot returns every cached entry with its PCID tag, in unspecified
// order. Intended for invariant checks in tests.
func (t *TLB) Snapshot() []SnapshotEntry {
	out := make([]SnapshotEntry, 0, t.Len())
	for k, e := range t.e4k {
		out = append(out, SnapshotEntry{k.pcid, e})
	}
	for k, e := range t.e2m {
		out = append(out, SnapshotEntry{k.pcid, e})
	}
	return out
}

// --- Page-walk cache ---

// WalkCacheLookup reports whether the upper-level walk state for va is
// cached, inserting it if not. The caller uses the result to pick the
// partial-walk or full-walk cost.
func (t *TLB) WalkCacheLookup(va uint64) (hit bool) {
	if t.cfg.PWCSize <= 0 {
		t.stats.PWCMisses++
		return false
	}
	region := va >> pagetable.PageShift2M
	if _, ok := t.pwc[region]; ok {
		t.stats.PWCHits++
		return true
	}
	t.stats.PWCMisses++
	if len(t.pwc) >= t.cfg.PWCSize {
		for t.pwcHead < len(t.pwcRing) {
			r := t.pwcRing[t.pwcHead]
			t.pwcHead++
			if _, ok := t.pwc[r]; ok {
				delete(t.pwc, r)
				break
			}
		}
	}
	t.pwcSeq++
	t.pwc[region] = t.pwcSeq
	t.pwcRing = append(t.pwcRing, region)
	if t.pwcHead > 1024 && t.pwcHead*2 > len(t.pwcRing) {
		n := copy(t.pwcRing, t.pwcRing[t.pwcHead:])
		t.pwcRing = t.pwcRing[:n]
		t.pwcHead = 0
	}
	return false
}

// InvalidateWalkCache drops the entire page-walk cache. INVLPG flushes the
// whole page-structure cache (paper §5.1, "in-context flushing ... INVLPG
// flushes the entire page-structure cache"); INVPCID single-address does
// not, so callers invoke this only on the INVLPG path.
func (t *TLB) InvalidateWalkCache() {
	clear(t.pwc)
	t.pwcRing = t.pwcRing[:0]
	t.pwcHead = 0
}
