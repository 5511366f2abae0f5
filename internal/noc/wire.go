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
// When the reader is a router or an NI, rd is its reading end and bit the
// wire's bit in rd.pending, set exactly while the wire holds entries
// (ready or in flight): every push sets it and wakes the reader no later
// than the entry's arrival cycle — which is what lets routers and NIs
// sleep safely — and the reader walks the set bits instead of polling
// every wire it owns, and sleeps when none is set. Shard-boundary stubs
// and the credit wires read by inject ports have no reading end.
//
// Wires live in the Network's two wire slabs and their queues are carved
// from its queue slabs at the credit bound (see Network), so a push
// never allocates; drains shift the queue down in place and keep the
// carved window.
type wire[T any] struct {
	q   []wireEntry[T]
	rd  *wireReader
	bit uint32
}

// wireReader is the reading end of all the wires one component reads:
// its engine wake handle and one pending bit per wire. It is derived
// state — a checkpoint saves the wires, and a restore sets the bits from
// them (wire.sync).
type wireReader struct {
	handle  *sim.Handle
	pending uint32
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
	if w.rd != nil {
		w.rd.pending |= w.bit
		w.rd.handle.WakeAt(arrive)
	}
}

// ready returns the entries that have arrived by now, in order. The
// reader handles them and then calls consume with their count.
func (w *wire[T]) ready(now int64) []wireEntry[T] {
	n := 0
	for n < len(w.q) && w.q[n].arrive <= now {
		n++
	}
	return w.q[:n]
}

// consume removes the first n entries, clearing the wire's pending bit
// when none are left.
func (w *wire[T]) consume(n int) {
	if n == 0 {
		return
	}
	w.q = append(w.q[:0], w.q[n:]...)
	w.sync()
}

// sync sets or clears the wire's pending bit by whether it holds
// entries; a restore calls it after writing the queue back.
func (w *wire[T]) sync() {
	switch {
	case w.rd == nil:
	case len(w.q) == 0:
		w.rd.pending &^= w.bit
	default:
		w.rd.pending |= w.bit
	}
}

// boundary interposes on a wire that crosses a shard boundary. The writer
// is handed the stub — a wire with no reading end, local to the writer's
// shard — while the reader keeps the real wire. The barrier
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

// drain pushes every staged entry onto the real wire, which sets the
// reader's pending bit and fires its wake-up. Called only from the
// barrier hook.
func (b *boundary[T]) drain() {
	q := b.stub.q
	for i := range q {
		b.real.push(q[i].v, q[i].arrive)
	}
	clear(q)
	b.stub.q = q[:0]
}

// creditMsg returns one buffer slot of an input VC to the sender upstream.
type creditMsg struct {
	vnet int32
	vc   int32
}
