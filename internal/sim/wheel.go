package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// Hierarchical timer wheel: the engine's pending-event queue.
//
// The wheel divides the 64-bit virtual clock into eight byte-wide levels
// of 256 slots each, so the full Time range is representable and there is
// no overflow or re-hashing policy to tune. An event is filed at the
// level of the highest byte in which its timestamp differs from the
// wheel's cursor (level 0 when equal), at the slot indexed by that byte
// of the timestamp:
//
//	level(ev) = highestDifferingByte(ev.at, cur)
//	slot(ev)  = byte_level(ev.at)
//
// The cursor cur is a lower bound on every pending timestamp, advanced
// only when the engine commits to dispatching the minimum event (pop),
// never by nextTime — RunUntil may stop at a horizon and later accept
// events between now and the wheel's former tentative minimum, so a
// cursor that crept forward on peeks would reject legal schedules. A pop
// of a cancelled event still commits the cursor; a push that later lands
// below it rewinds the wheel (see rewind).
//
// The filing rule yields two invariants that make ordering cheap:
//
//  1. Levels are totally ordered: every event at level l precedes every
//     event at level l+1 (their bytes above l match cur, and byte l of a
//     level-l event can only be >= cur's, while a level-(l+1) event
//     already exceeds cur at byte l+1). The minimum is always at the
//     lowest non-empty level.
//  2. Slots stay sequence-sorted without any sorting: a slot only
//     receives events either directly (At allocates strictly increasing
//     seq, so appends arrive in seq order) or by cascading a higher
//     slot, and a cascade only runs when every lower level is empty —
//     so cascaded events (in preserved seq order) always land in virgin
//     slots, and later direct inserts carry larger seqs.
//
// A level-0 slot therefore holds exactly one timestamp with its events
// already in dispatch order; pop lifts the whole slot into a dispatch
// batch with one slice swap (batched same-timestamp dispatch) and hands
// events out one by one. Callbacks scheduling more work at the same
// timestamp append to the (now empty, capacity-retaining) slot, which is
// re-lifted when the batch drains. Slot backing arrays and the batch
// buffer are recycled, so steady-state operation allocates nothing.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits  // 256 slots per level
	wheelLevels = 64 / wheelBits  // 8 levels cover the full Time range
	wheelOccW   = wheelSlots / 64 // occupancy bitmap words per level
)

type wheelLevel struct {
	slots [wheelSlots][]*Event
	occ   [wheelOccW]uint64 // bit i set iff slots[i] non-empty
}

// setOcc marks slot idx occupied.
func (l *wheelLevel) setOcc(idx int) { l.occ[idx/64] |= 1 << (uint(idx) % 64) }

// clearOcc marks slot idx empty.
func (l *wheelLevel) clearOcc(idx int) { l.occ[idx/64] &^= 1 << (uint(idx) % 64) }

// minOcc returns the lowest occupied slot index, or -1.
func (l *wheelLevel) minOcc() int {
	for w, bm := range l.occ {
		if bm != 0 {
			return w*64 + bits.TrailingZeros64(bm)
		}
	}
	return -1
}

type timerWheel struct {
	cur    Time // lower bound on all pending timestamps
	count  int
	levels [wheelLevels]wheelLevel
	lvMask uint // bit l set iff level l has occupied slots

	// Dispatch batch: the level-0 slot currently being drained. All its
	// events share one timestamp and are in seq order.
	batch     []*Event
	batchHead int

	// spare recycles the previous batch's backing array into the next
	// emptied slot, keeping the steady state allocation-free.
	spare []*Event
}

func newTimerWheel() *timerWheel { return &timerWheel{} }

// levelOf returns the wheel level for timestamp at relative to cur.
func (w *timerWheel) levelOf(at Time) int {
	d := uint64(at ^ w.cur)
	if d == 0 {
		return 0
	}
	return (bits.Len64(d) - 1) / wheelBits
}

func (w *timerWheel) push(ev *Event) {
	if ev.at < w.cur {
		w.rewind(ev.at)
	}
	l := w.levelOf(ev.at)
	idx := int(uint8(ev.at >> (uint(l) * wheelBits)))
	lv := &w.levels[l]
	lv.slots[idx] = append(lv.slots[idx], ev)
	lv.setOcc(idx)
	w.lvMask |= 1 << uint(l)
	w.count++
}

// rewind lowers the cursor to at and refiles every pending event against
// it. The cursor can run ahead of the engine clock: pop commits it to
// every event it hands out, including cancelled ones the engine skips
// without advancing the clock. When a Run or RunUntil ends on such an
// event, the next push may land below the cursor, where the filing rule
// no longer orders it. Refiling in seq order keeps every slot
// sequence-sorted. The path is rare, so its cost does not matter.
func (w *timerWheel) rewind(at Time) {
	pending := append([]*Event(nil), w.batch[w.batchHead:]...)
	for l := range w.levels {
		for _, slot := range w.levels[l].slots {
			pending = append(pending, slot...)
		}
	}
	slices.SortFunc(pending, func(a, b *Event) int { return cmp.Compare(a.seq, b.seq) })
	*w = timerWheel{cur: at}
	for _, ev := range pending {
		w.push(ev)
	}
}

func (w *timerWheel) len() int { return w.count }

// nextTime returns the minimum pending timestamp without advancing the
// cursor. At level 0 the slot index is the timestamp; at higher levels
// the minimum slot must be scanned (the work is proportional to the slot
// pop would cascade anyway).
func (w *timerWheel) nextTime() (Time, bool) {
	if w.batchHead < len(w.batch) {
		return w.batch[w.batchHead].at, true
	}
	if w.count == 0 {
		return 0, false
	}
	l := bits.TrailingZeros(w.lvMask)
	lv := &w.levels[l]
	idx := lv.minOcc()
	if l == 0 {
		return w.cur&^Time(wheelSlots-1) | Time(idx), true
	}
	min := Time(0)
	for i, ev := range lv.slots[idx] {
		if i == 0 || ev.at < min {
			min = ev.at
		}
	}
	return min, true
}

// pop removes and returns the minimum event, committing any cursor
// advance and cascades that entails.
func (w *timerWheel) pop() *Event {
	for {
		if w.batchHead < len(w.batch) {
			ev := w.batch[w.batchHead]
			w.batch[w.batchHead] = nil
			w.batchHead++
			w.count--
			return ev
		}
		l := bits.TrailingZeros(w.lvMask)
		lv := &w.levels[l]
		idx := lv.minOcc()
		if l == 0 {
			// Commit the cursor to this slot's timestamp and lift the
			// whole same-timestamp batch out with a slice swap; the
			// retired batch buffer becomes the slot's new backing so
			// same-timestamp re-inserts from callbacks append into
			// warmed capacity.
			w.cur = w.cur&^Time(wheelSlots-1) | Time(idx)
			w.batch, w.spare = lv.slots[idx], w.batch[:0]
			w.batchHead = 0
			lv.slots[idx] = w.spare
			lv.clearOcc(idx)
			if lv.minOcc() < 0 {
				w.lvMask &^= 1
			}
			continue
		}
		// Cascade: advance the cursor into this slot's epoch (zeroing
		// the bytes below keeps it a lower bound) and refile the slot's
		// events; each lands at a strictly lower level with seq order
		// preserved, because all lower levels are empty right now.
		shift := uint(l) * wheelBits
		w.cur = w.cur&^Time(1<<(shift+wheelBits)-1) | Time(idx)<<shift
		taken := lv.slots[idx]
		lv.slots[idx] = taken[:0]
		lv.clearOcc(idx)
		if lv.minOcc() < 0 {
			w.lvMask &^= 1 << uint(l)
		}
		w.count -= len(taken)
		for i, ev := range taken {
			w.push(ev)
			taken[i] = nil
		}
	}
}

func (w *timerWheel) clear() {
	*w = timerWheel{}
}
