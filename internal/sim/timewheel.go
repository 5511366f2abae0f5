package sim

import "snacknoc/internal/flat"

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
// Every pending event is a record in one engine-owned flat.Links slab.
// A ring slot is a chain of records in seq order; the overflow heap
// holds the numbers of records that no chain holds. The slab doubles
// when its free list runs dry, so an engine's whole event traffic costs
// a handful of allocations and its steady state none.
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

type timeWheel struct {
	evs      flat.Links[event]
	slots    []flat.Chain // each slot's events, oldest seq first
	overflow []int32      // min-heap of record numbers, by (cycle, seq)
	// pending counts events everywhere (ring + overflow); the engine skips
	// the whole event phase when it is zero.
	pending int
}

// schedule files record i, due at its cycle, given the current cycle now.
// The cycle must be strictly after now (the engine enforces this).
func (w *timeWheel) schedule(now int64, i int32) {
	w.pending++
	if w.evs.At(i).cycle-now < wheelSize {
		w.place(now, i)
		return
	}
	w.push(i)
}

// place links record i into its ring slot's chain in seq order. A direct
// schedule carries the newest seq and appends at the tail; a migrated
// overflow event may belong further forward.
func (w *timeWheel) place(now int64, i int32) {
	ev := w.evs.At(i)
	if int(ev.cycle-now) >= len(w.slots) {
		w.grow(int(ev.cycle - now))
	}
	s := &w.slots[int(ev.cycle)&(len(w.slots)-1)]
	prev := s.Tail()
	if prev >= 0 && w.evs.At(prev).seq > ev.seq {
		prev = -1
		for c := s.Head(); w.evs.At(c).seq < ev.seq; c = w.evs.Next(c) {
			prev = c
		}
	}
	w.evs.InsertAfter(s, prev, i)
}

// grow doubles the ring until it spans distance d, in place when its
// array has room (a restore can shrink a grown ring). Every occupied
// slot holds events of a single cycle, so it moves to its new index
// whole; that index is congruent to the old one modulo the old size, so
// it lies past the old slots and nothing is overwritten.
func (w *timeWheel) grow(d int) {
	old := len(w.slots)
	n := max(old, wheelMin)
	for n <= d {
		n *= 2
	}
	if n > cap(w.slots) {
		w.slots = append(make([]flat.Chain, 0, n), w.slots...)
	}
	w.slots = w.slots[:n]
	clear(w.slots[old:])
	for k := range old {
		if s := w.slots[k]; !s.Empty() {
			if j := int(w.evs.At(s.Head()).cycle) & (n - 1); j != k {
				w.slots[j], w.slots[k] = s, flat.Chain{}
			}
		}
	}
}

// collect migrates newly in-horizon overflow events into the ring, then
// detaches and returns the chain of events due at cycle now, in seq
// order. The caller pops and runs them, counting each off pending.
func (w *timeWheel) collect(now int64) (c flat.Chain) {
	for len(w.overflow) > 0 && w.evs.At(w.overflow[0]).cycle-now < wheelSize {
		w.place(now, w.pop())
	}
	if len(w.slots) == 0 {
		return c
	}
	s := &w.slots[int(now)&(len(w.slots)-1)]
	c, *s = *s, c
	return c
}

// less orders records i and j by (cycle, seq).
func (w *timeWheel) less(i, j int32) bool {
	a, b := w.evs.At(i), w.evs.At(j)
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

// reset drops every pending event, keeping the slab, ring and heap.
func (w *timeWheel) reset() {
	w.evs.Reset()
	clear(w.slots)
	w.overflow = w.overflow[:0]
	w.pending = 0
}
