package noc

import "snacknoc/internal/sim"

// wire is a unidirectional, latency-carrying channel between two
// components (flits router→router, credits back the other way). The
// writer appends during its Advance phase with an absolute arrival cycle;
// the single owning reader pops ready entries during its Evaluate phase.
// Because Advance at cycle T always schedules arrival at T+1 or later,
// readers never observe same-cycle writes, keeping the two-phase update
// deterministic regardless of component ordering.
//
// When the reader is a quiescence-capable component, waker holds its
// engine handle: every push wakes the reader no later than the entry's
// arrival cycle, which is what lets routers and NIs sleep safely.
//
// Wires live in the Network's two wire slabs and their queues are carved
// from its queue slabs at the credit bound (see Network), so a push
// never allocates; drains shift the queue down in place and keep the
// carved window.
type wire[T any] struct {
	q     []wireEntry[T]
	waker *sim.Handle
}

type wireEntry[T any] struct {
	v      T
	arrive int64
}

// push schedules v to become visible to the reader at the given cycle.
// Pushes must be issued in non-decreasing arrival order, which holds
// naturally for constant-latency links.
func (w *wire[T]) push(v T, arrive int64) {
	w.q = append(w.q, wireEntry[T]{v: v, arrive: arrive})
	w.waker.WakeAt(arrive)
}

// drainReady invokes fn, in order, for every entry with arrive <= now and
// removes them, without allocating.
func (w *wire[T]) drainReady(now int64, fn func(T)) {
	if len(w.q) == 0 || w.q[0].arrive > now {
		return
	}
	n := 0
	for n < len(w.q) && w.q[n].arrive <= now {
		fn(w.q[n].v)
		n++
	}
	w.q = append(w.q[:0], w.q[n:]...)
}

// pending returns the number of queued entries (ready or not).
func (w *wire[T]) pending() int { return len(w.q) }

// boundary interposes on a wire that crosses a shard boundary. The writer
// is handed the stub — a wire with no waker, local to the writer's shard —
// while the reader keeps the real wire and its wake handle. The barrier
// hook drains every boundary serially between cycles, so neither the
// slice append nor the reader-engine wake-up ever races a shard goroutine.
//
// Delivery order within one wire is preserved (stub entries append in push
// order, with non-decreasing arrival cycles), and the relative drain order
// of different boundaries is immaterial: distinct wires feed distinct
// reader state, and a wake-up at the barrier lands on the same cycle as
// the wake event the serial kernel would have scheduled — which is what
// makes sharded execution byte-identical to serial (DESIGN.md §9).
type boundary[T any] struct {
	stub, real *wire[T]
}

// interpose points *slot (a wire the remote writer pushes into) at stub
// and returns the boundary pairing it with the real wire.
func interpose[T any](slot **wire[T], stub *wire[T]) boundary[T] {
	b := boundary[T]{stub: stub, real: *slot}
	*slot = stub
	return b
}

// drain moves every staged entry onto the real wire and fires the
// reader's wake-up. Called only from the barrier hook.
func (b *boundary[T]) drain() {
	q := b.stub.q
	if len(q) == 0 {
		return
	}
	var zero wireEntry[T]
	for i := range q {
		b.real.q = append(b.real.q, q[i])
		b.real.waker.WakeAt(q[i].arrive)
		q[i] = zero
	}
	b.stub.q = q[:0]
}

// creditMsg returns one buffer slot of an input VC to the sender upstream.
type creditMsg struct {
	vnet int32
	vc   int32
}
