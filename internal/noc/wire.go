package noc

import (
	"fmt"

	"snacknoc/internal/sim"
)

// wire is a unidirectional, latency-carrying flit channel between two
// components. The writer appends during its Advance phase with an absolute
// arrival cycle; the single owning reader pops ready entries during its
// Evaluate phase. Because Advance at cycle T always schedules arrival at
// T+1 or later, readers never observe same-cycle writes, keeping the
// two-phase update deterministic regardless of component ordering. Buffer
// slots come back through a creditSink, not on a wire.
//
// rd is the reader's end and bit the wire's bit in rd.pending, set
// exactly while the wire holds entries (ready or in flight): every push
// sets it and wakes the reader no later than the entry's arrival cycle —
// which is what lets routers and NIs sleep safely — and the reader walks
// the set bits instead of polling every wire it owns, and sleeps when
// none is set.
//
// Wires live in the Network's wire slab and their queues are carved from
// its queue slab at the credit bound (see Network), so a push never
// allocates; drains shift the queue down in place within the window.
type wire struct {
	q   []wireEntry
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

type wireEntry struct {
	f      *Flit
	arrive int64
}

// push schedules f to become visible to the reader at the given cycle.
// Pushes must be issued in non-decreasing arrival order, which holds
// naturally for constant-latency links.
func (w *wire) push(f *Flit, arrive int64) {
	w.q = append(w.q, wireEntry{f: f, arrive: arrive})
	w.rd.pending |= w.bit
	w.rd.handle.WakeAt(arrive)
}

// ready returns the entries that have arrived by now, in order. The
// reader handles them and then calls consume with their count.
func (w *wire) ready(now int64) []wireEntry {
	n := 0
	for n < len(w.q) && w.q[n].arrive <= now {
		n++
	}
	return w.q[:n]
}

// consume removes the first n entries, clearing the wire's pending bit
// when none are left.
func (w *wire) consume(n int) {
	if n == 0 {
		return
	}
	w.q = append(w.q[:0], w.q[n:]...)
	w.sync()
}

// sync sets or clears the wire's pending bit by whether it holds
// entries; a restore calls it after writing the queue back.
func (w *wire) sync() {
	if len(w.q) == 0 {
		w.rd.pending &^= w.bit
	} else {
		w.rd.pending |= w.bit
	}
}

// credit is one buffer slot a router hands back.
type credit struct {
	port     Direction // the input port that freed it
	vnet, vc int8
}

// creditSink is where an input port returns the slots its flits vacate. A
// credit is a counter increment, not a message: Router.Advance adds the
// slot to the sender's free-slot counter (to is the sender's window of
// Network.credits), and since every Advance of a cycle runs after every
// Evaluate of it and senders read their counters in Evaluate, the sender
// first sees the slot a cycle later — the link's one-cycle credit latency,
// with nothing queued and no wake-up (DESIGN.md §9). An inject port reads
// its counters in Send, in its user's Advance: to is its landed window,
// which Update folds into them in the next Evaluate.
type creditSink struct {
	to       []int32 // [base+vnetOff[v]+c], the sender's free slots
	vnetOff  []int32 // the network's shared per-vnet geometry
	depthOf  []int32
	base     int32     // -vnetOff[snack] where to holds the snack vnet only
	credited *bool     // the sending NI's flag (see niScalars), set by a landing
	node     NodeID    // the sender's node, for the overflow panic
	dir      Direction // its output port there (L: the NI, C: the inject port)
}

// put returns one slot to the sender, counting it free there; past the
// VC's depth is a bug.
func (s *creditSink) put(c credit) {
	slot := s.base + s.vnetOff[c.vnet] + int32(c.vc)
	s.to[slot]++
	if s.to[slot] > s.depthOf[c.vnet] {
		panic(fmt.Sprintf("router%d: credit overflow on %s vnet %d vc %d", s.node, s.dir, c.vnet, c.vc))
	}
	if s.credited != nil {
		*s.credited = true
	}
}
