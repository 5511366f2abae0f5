package cache

import (
	"slices"

	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
)

// Checkpoint support. The hierarchy's mutable state is each L1's and
// each bank's block (l1State, l2State, each with its tag store), the
// memory nodes' reads in flight and the DRAM controllers. Pending events
// live in the engine snapshot as (callee, argument) pairs — a controller
// and a block or slab slot — and every held message is a value in a slab
// (messages are recycled by the handler that receives them), so one
// copyFrom per block both takes and restores it, slot for slot, lookup
// tables and free lists included. A slot that owns a slice (an MSHR's
// waiters and retries, a home transaction's pending requests) is copied
// into that slot's own storage. Waiters are records copied by value; a
// waiter's done callback is the caller's.

// copyFrom makes t a copy of o, reusing t's storage.
func (t *tags) copyFrom(o *tags) {
	t.lines = append(t.lines[:0], o.lines...)
	t.tick, t.hits, t.misses = o.tick, o.hits, o.misses
}

// copyFrom makes e a copy of o, its waiters and retries in e's own
// storage.
func (e *mshrEntry) copyFrom(o *mshrEntry) {
	w, r := e.waiters[:0], e.retry[:0]
	*e = *o
	e.waiters = append(w, o.waiters...)
	e.retry = append(r, o.retry...)
}

// copyFrom makes t a copy of o, its pending requests in t's own storage.
func (t *l2txn) copyFrom(o *l2txn) {
	p := t.pending[:0]
	*t = *o
	t.pending = append(p, o.pending...)
}

// copyFrom makes s a copy of o, reusing s's storage.
func (s *l1State) copyFrom(o *l1State) {
	s.cache.tags.copyFrom(&o.cache.tags)
	s.mshrHead = o.mshrHead
	s.mshrSlab = slices.Grow(s.mshrSlab[:0], len(o.mshrSlab))[:len(o.mshrSlab)]
	for i := range o.mshrSlab {
		s.mshrSlab[i].copyFrom(&o.mshrSlab[i])
	}
	s.mshrFree, s.mshrN = o.mshrFree, o.mshrN
	s.parked.CopyFrom(&o.parked, nil)
	s.hits, s.misses, s.latSum, s.latCount = o.hits, o.misses, o.latSum, o.latCount
	s.attrib, s.attribLast = o.attrib, o.attribLast
}

// copyFrom makes s a copy of o, reusing s's storage.
func (s *l2State) copyFrom(o *l2State) {
	s.cache.tags.copyFrom(&o.cache.tags)
	s.dirTab.CopyFrom(&o.dirTab)
	s.dirSlots = append(s.dirSlots[:0], o.dirSlots...)
	s.txnTab.CopyFrom(&o.txnTab)
	s.txns.CopyFrom(&o.txns, (*l2txn).copyFrom)
	s.hits, s.misses, s.recalls, s.invs = o.hits, o.misses, o.recalls, o.invs
}

// SystemState is the whole hierarchy's saved state. Memory nodes are
// saved in memNodes order, which is deterministic by construction.
type SystemState struct {
	l1s   []l1State
	l2s   []l2State
	mems  []mem.ControllerState
	reads []flat.Slots[Msg]
}

// State captures every controller in the hierarchy.
func (s *System) State() *SystemState {
	st := &SystemState{
		l1s:   make([]l1State, len(s.L1s)),
		l2s:   make([]l2State, len(s.L2s)),
		mems:  make([]mem.ControllerState, len(s.memNodes)),
		reads: make([]flat.Slots[Msg], len(s.memNodes)),
	}
	for i, l := range s.L1s {
		st.l1s[i].copyFrom(&l.l1State)
	}
	for i, b := range s.L2s {
		st.l2s[i].copyFrom(&b.l2State)
	}
	for i, mn := range s.memNodes {
		st.mems[i].CopyFrom(&s.Mems[mn].ctrl.ControllerState)
		st.reads[i].CopyFrom(&s.Mems[mn].reads, nil)
	}
	return st
}

// Restore writes a saved state back onto the same system.
func (s *System) Restore(st *SystemState) {
	for i, l := range s.L1s {
		l.l1State.copyFrom(&st.l1s[i])
	}
	for i, b := range s.L2s {
		b.l2State.copyFrom(&st.l2s[i])
	}
	for i, mn := range s.memNodes {
		s.Mems[mn].ctrl.CopyFrom(&st.mems[i])
		s.Mems[mn].reads.CopyFrom(&st.reads[i], nil)
	}
}
