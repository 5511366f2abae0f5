package sim

import "container/heap"

// The event queue is a calendar queue: a power-of-two ring of slots, one
// per cycle within the horizon, plus a min-heap for events scheduled
// further out. The ring starts empty and doubles until it covers the
// furthest in-horizon event it has been handed (most engines — shard
// sub-engines, short probe runs — never look more than a few cycles
// ahead, and a full ring is 24 KiB of slot headers); growth re-files
// whole slots, so the events due at a cycle and their order are the
// same for every ring size. NoC event densities make this the right trade — almost
// every event (wire arrivals, wake-ups, DRAM returns) lands within a few
// hundred cycles of now, so schedule and pop are O(1) appends and slice
// takes instead of O(log n) heap reshuffles. Far-future events (deep
// sleeper wake-ups, end-of-warmup callbacks) go to the overflow heap and
// migrate into the ring once they come within the horizon.
//
// Slot aliasing cannot deliver an event early: an in-ring event satisfies
// at-now < len(slots) when placed, and a slot is only drained at cycles
// congruent to its index mod len(slots), so every event in the drained
// slot is due exactly now — and all events sharing a slot share a cycle.

const (
	wheelSize = 1 << 10 // horizon in cycles, and the ring's largest size
	wheelMin  = 16      // the ring's first size
)

// event is a scheduled callback (fn), typed call (callee, arg) or
// component wake-up (wake); exactly one of fn, callee and wake is set.
// seq breaks same-cycle ties: events fire in schedule order, matching the
// guarantee the old binary heap provided.
type event struct {
	cycle  int64
	seq    int64
	fn     func()
	callee Callee
	arg    int64
	wake   *Handle
}

// eventQueue is the overflow min-heap, ordered by (cycle, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type timeWheel struct {
	slots    [][]*event
	overflow eventQueue
	// pending counts events everywhere (ring + overflow); the engine skips
	// the whole event phase when it is zero.
	pending int
	// spare holds slot backing arrays — drained ones and fresh ones (see
	// refill) — so steady-state scheduling allocates nothing.
	spare [][]*event
}

// schedule files ev, due at ev.cycle, given the current cycle now.
// ev.cycle must be strictly after now (the engine enforces this).
func (w *timeWheel) schedule(now int64, ev *event) {
	w.pending++
	if ev.cycle-now < wheelSize {
		w.place(now, ev)
		return
	}
	heap.Push(&w.overflow, ev)
}

// place appends ev to its ring slot, reusing drained backing arrays.
func (w *timeWheel) place(now int64, ev *event) {
	if int(ev.cycle-now) >= len(w.slots) {
		w.grow(int(ev.cycle - now))
	}
	idx := int(ev.cycle) & (len(w.slots) - 1)
	s := w.slots[idx]
	if s == nil {
		if len(w.spare) == 0 {
			w.refill()
		}
		n := len(w.spare)
		s = w.spare[n-1]
		w.spare = w.spare[:n-1]
	}
	w.slots[idx] = append(s, ev)
}

// Slot backing arrays are born a chunk at a time, each a full-capacity
// window of one allocation (a slot that outgrows its window reallocates
// on its own).
const (
	slotChunk = 16 // arrays per refill
	slotCap   = 4  // events per array
)

func (w *timeWheel) refill() {
	buf := make([]*event, slotChunk*slotCap)
	if cap(w.spare) < slotChunk {
		w.spare = make([][]*event, 0, 2*slotChunk)
	}
	for i := 0; i < slotChunk; i++ {
		w.spare = append(w.spare, buf[i*slotCap:i*slotCap:(i+1)*slotCap])
	}
}

// grow doubles the ring until it spans distance d. Every occupied slot
// holds events of a single cycle, so it moves to its new index whole.
func (w *timeWheel) grow(d int) {
	n := max(len(w.slots), wheelMin)
	for n <= d {
		n *= 2
	}
	slots := make([][]*event, n)
	for _, s := range w.slots {
		if len(s) > 0 {
			slots[int(s[0].cycle)&(n-1)] = s
		}
	}
	w.slots = slots
}

// collect migrates newly in-horizon overflow events into the ring, then
// detaches and returns the events due at cycle now, ordered by seq. The
// caller must hand the slice back via release once the events have run.
func (w *timeWheel) collect(now int64) []*event {
	for len(w.overflow) > 0 && w.overflow[0].cycle-now < wheelSize {
		w.place(now, heap.Pop(&w.overflow).(*event))
	}
	if len(w.slots) == 0 {
		return nil
	}
	idx := int(now) & (len(w.slots) - 1)
	s := w.slots[idx]
	if len(s) == 0 {
		return nil
	}
	w.slots[idx] = nil
	w.pending -= len(s)
	// Direct schedules append in seq order, but overflow migration can
	// interleave older seqs behind them; insertion sort is O(n) for the
	// common already-sorted case and n is tiny (events due one cycle).
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].seq > s[j].seq; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
	return s
}

// release returns a drained slot's backing array for reuse.
func (w *timeWheel) release(s []*event) {
	if cap(s) > 0 {
		w.spare = append(w.spare, s[:0])
	}
}
