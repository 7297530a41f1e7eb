package sim

import (
	"math/rand"
	"testing"
)

// eventHeap is a binary min-heap ordered by (at, seq): the engine's
// original event queue, kept as the reference the timer wheel is checked
// against.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and restores the heap property (sift-up).
func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event (sift-down).
func (h *eventHeap) pop() *Event {
	s := *h
	n := len(s) - 1
	min := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && s.less(r, l) {
			child = r
		}
		if !s.less(child, i) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return min
}

func (h *eventHeap) len() int { return len(*h) }

func (h *eventHeap) nextTime() (Time, bool) {
	if len(*h) == 0 {
		return 0, false
	}
	return (*h)[0].at, true
}

// eventQueue is the surface the equivalence test drives on both queues.
type eventQueue interface {
	push(ev *Event)
	pop() *Event
	nextTime() (Time, bool)
	len() int
}

// queueLoop is the engine's dispatch loop reduced to its ordering
// essentials: At allocates strictly increasing seqs, and each step peeks
// the minimum time, pops, skips cancelled events, advances the clock and
// fires.
type queueLoop struct {
	q   eventQueue
	now Time
	seq uint64
	// peekMismatch records the first pop whose time nextTime misreported.
	peekMismatch *Event
}

func (l *queueLoop) after(d uint64, fn func()) *Event {
	l.seq++
	ev := &Event{at: l.now + Time(d), seq: l.seq, fn: fn}
	l.q.push(ev)
	return ev
}

func (l *queueLoop) run() {
	for l.q.len() > 0 {
		t, ok := l.q.nextTime()
		ev := l.q.pop()
		if (!ok || t != ev.at) && l.peekMismatch == nil {
			l.peekMismatch = ev
		}
		if ev.cancelled {
			continue
		}
		l.now = ev.at
		ev.fn()
	}
}

// TestWheelHeapOrderEquivalence drives the timer wheel and the reference
// heap with identical random schedules — including same-timestamp bursts,
// cancellations and inserts from inside callbacks — and requires the
// exact same firing order.
func TestWheelHeapOrderEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		drive := func(q eventQueue) []int {
			rng := rand.New(rand.NewSource(seed))
			l := &queueLoop{q: q}
			var order []int
			id := 0
			var evs []*Event
			var schedule func(depth int) func()
			schedule = func(depth int) func() {
				me := id
				id++
				return func() {
					order = append(order, me)
					// From inside a callback, sometimes schedule more
					// work at the current instant or nearby.
					if depth < 2 && rng.Intn(3) == 0 {
						for i := 0; i < rng.Intn(3); i++ {
							evs = append(evs, l.after(uint64(rng.Intn(4)), schedule(depth+1)))
						}
					}
				}
			}
			for i := 0; i < 300; i++ {
				// Mix of short, clustered and far-future delays so all
				// wheel levels and cascades are exercised.
				var d uint64
				switch rng.Intn(4) {
				case 0:
					d = uint64(rng.Intn(3)) // same/near timestamp bursts
				case 1:
					d = uint64(rng.Intn(200))
				case 2:
					d = uint64(rng.Intn(100_000))
				default:
					d = uint64(rng.Intn(50_000_000))
				}
				evs = append(evs, l.after(d, schedule(0)))
				if rng.Intn(10) == 0 && len(evs) > 0 {
					evs[rng.Intn(len(evs))].Cancel()
				}
				if rng.Intn(20) == 0 {
					l.run()
				}
			}
			l.run()
			if ev := l.peekMismatch; ev != nil {
				t.Fatalf("seed %d: %T.nextTime disagreed with pop at t=%d seq=%d", seed, q, ev.at, ev.seq)
			}
			return order
		}
		heapOrder := drive(&eventHeap{})
		wheelOrder := drive(newTimerWheel())
		if len(heapOrder) != len(wheelOrder) {
			t.Fatalf("seed %d: fired %d events under heap, %d under wheel", seed, len(heapOrder), len(wheelOrder))
		}
		for i := range heapOrder {
			if heapOrder[i] != wheelOrder[i] {
				t.Fatalf("seed %d: firing order diverges at %d: heap %d, wheel %d",
					seed, i, heapOrder[i], wheelOrder[i])
			}
		}
	}
}
