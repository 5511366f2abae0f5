package sim

// The event queue is a calendar queue: a power-of-two ring of slots, one
// per cycle within the horizon, plus a min-heap for events scheduled
// further out. The ring starts empty and doubles until it covers the
// furthest in-horizon event it has been handed (many engines — short
// probe runs — never look more than a few cycles ahead, and a full ring
// is 8 KiB of slot headers); growth re-files whole slots, so the events
// due at a cycle and their order are the same for every ring size. NoC
// event densities make this the right trade — almost every event (wire
// arrivals, wake-ups, DRAM returns) lands within a few hundred cycles of
// now, so schedule and pop are O(1) chain appends and chain takes
// instead of O(log n) heap reshuffles. Far-future events (deep sleeper
// wake-ups, end-of-warmup callbacks) go to the overflow heap and migrate
// into the ring once they come within the horizon.
//
// Every pending event is a record in one engine-owned slab, named by its
// index plus one (0 is "none"), so the zero wheel is empty. A ring slot
// is a chain of records through their next field, in seq order; the
// overflow heap holds record numbers; freed records form a free list
// through the same field. The slab doubles when the free list runs dry,
// so an engine's whole event traffic costs a handful of allocations and
// its steady state none.
//
// Slot aliasing cannot deliver an event early: an in-ring event satisfies
// at-now < len(slots) when placed, and a slot is only drained at cycles
// congruent to its index mod len(slots), so every event in the drained
// slot is due exactly now — and all events sharing a slot share a cycle.

const (
	wheelSize = 1 << 10 // horizon in cycles, and the ring's largest size
	wheelMin  = 16      // the ring's first size
	// eventChunk is the event slab's first size; it doubles from there.
	eventChunk = 32
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
	next   int32 // next record of its slot chain or the free list, 0 at the end
}

// slotChain is a ring slot's events, oldest seq first: its first and last
// record numbers, 0 when empty.
type slotChain struct{ head, tail int32 }

type timeWheel struct {
	evs      []event
	free     int32 // first free record, 0 when none
	slots    []slotChain
	overflow []int32 // min-heap of record numbers, by (cycle, seq)
	// pending counts events everywhere (ring + overflow); the engine skips
	// the whole event phase when it is zero.
	pending int
}

// at returns the record numbered i.
func (w *timeWheel) at(i int32) *event { return &w.evs[i-1] }

// alloc takes a record off the free list, doubling the slab when it is
// dry. The record's fields are zero.
func (w *timeWheel) alloc() int32 {
	if w.free == 0 {
		old := len(w.evs)
		evs := make([]event, max(2*old, eventChunk))
		copy(evs, w.evs)
		w.evs = evs
		w.freeFrom(old)
	}
	i := w.free
	w.free = w.at(i).next
	w.at(i).next = 0
	return i
}

// release zeroes record i, dropping its references, and frees it.
func (w *timeWheel) release(i int32) {
	*w.at(i) = event{next: w.free}
	w.free = i
}

// schedule files record i, due at its cycle, given the current cycle now.
// The cycle must be strictly after now (the engine enforces this).
func (w *timeWheel) schedule(now int64, i int32) {
	w.pending++
	if w.at(i).cycle-now < wheelSize {
		w.place(now, i)
		return
	}
	w.push(i)
}

// place links record i into its ring slot's chain in seq order. A direct
// schedule carries the newest seq and appends at the tail; a migrated
// overflow event or a restored one may belong further forward.
func (w *timeWheel) place(now int64, i int32) {
	ev := w.at(i)
	if int(ev.cycle-now) >= len(w.slots) {
		w.grow(int(ev.cycle - now))
	}
	s := &w.slots[int(ev.cycle)&(len(w.slots)-1)]
	switch {
	case s.head == 0:
		s.head, s.tail = i, i
	case w.at(s.tail).seq < ev.seq:
		w.at(s.tail).next = i
		s.tail = i
	default:
		var prev int32
		c := s.head
		for w.at(c).seq < ev.seq {
			prev, c = c, w.at(c).next
		}
		ev.next = c
		if prev == 0 {
			s.head = i
		} else {
			w.at(prev).next = i
		}
	}
}

// grow doubles the ring until it spans distance d. Every occupied slot
// holds events of a single cycle, so it moves to its new index whole.
func (w *timeWheel) grow(d int) {
	n := max(len(w.slots), wheelMin)
	for n <= d {
		n *= 2
	}
	slots := make([]slotChain, n)
	for _, s := range w.slots {
		if s.head != 0 {
			slots[int(w.at(s.head).cycle)&(n-1)] = s
		}
	}
	w.slots = slots
}

// collect migrates newly in-horizon overflow events into the ring, then
// detaches and returns the chain of events due at cycle now, in seq
// order. The caller runs and releases them, counting each off pending.
func (w *timeWheel) collect(now int64) int32 {
	for len(w.overflow) > 0 && w.at(w.overflow[0]).cycle-now < wheelSize {
		w.place(now, w.pop())
	}
	if len(w.slots) == 0 {
		return 0
	}
	s := &w.slots[int(now)&(len(w.slots)-1)]
	head := s.head
	*s = slotChain{}
	return head
}

// less orders records i and j by (cycle, seq).
func (w *timeWheel) less(i, j int32) bool {
	a, b := w.at(i), w.at(j)
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// push adds record i to the overflow heap.
func (w *timeWheel) push(i int32) {
	h := append(w.overflow, i)
	for k := len(h) - 1; k > 0; {
		p := (k - 1) / 2
		if !w.less(h[k], h[p]) {
			break
		}
		h[k], h[p] = h[p], h[k]
		k = p
	}
	w.overflow = h
}

// pop removes and returns the overflow heap's earliest record.
func (w *timeWheel) pop() int32 {
	h := w.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for k := 0; ; {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && w.less(h[c+1], h[c]) {
			c++
		}
		if !w.less(h[c], h[k]) {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	w.overflow = h
	return top
}

// freeFrom puts every record from index k on, all zero, on the free
// list, lowest first.
func (w *timeWheel) freeFrom(k int) {
	for n := len(w.evs); n > k; n-- {
		w.evs[n-1].next = w.free
		w.free = int32(n)
	}
}

// reset releases every pending event, keeping the slab, ring and heap.
func (w *timeWheel) reset() {
	clear(w.evs)
	w.free = 0
	w.freeFrom(0)
	clear(w.slots)
	w.overflow = w.overflow[:0]
	w.pending = 0
}
