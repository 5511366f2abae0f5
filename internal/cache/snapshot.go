package cache

import (
	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
)

// Checkpoint support. The hierarchy's mutable state is each L1's and
// each bank's block (l1State, l2State, each with its tag store), the
// system's homeState, the memory nodes' reads in flight and the DRAM
// controllers. Pending events live in the engine snapshot as (callee,
// argument) pairs — a controller and a block or slab slot — and every
// held message or waiter is a value in a slab, chains and free lists
// linked by slot, so one copyFrom per block both takes and restores it
// with a plain copy of each slab and table. A waiter's done callback is
// the caller's.

// copyFrom makes t a copy of o, reusing t's storage: the set directory
// and the filled sets' groups only.
func (t *tags) copyFrom(o *tags) {
	t.dir = append(t.dir[:0], o.dir...)
	t.lines = append(t.lines[:0], o.lines...)
	t.tick, t.hits, t.misses = o.tick, o.hits, o.misses
}

// copyFrom makes s a copy of o, reusing s's storage.
func (s *l1State) copyFrom(o *l1State) {
	s.cache.tags.copyFrom(&o.cache.tags)
	s.mshrTab.CopyFrom(&o.mshrTab)
	s.mshrs.CopyFrom(&o.mshrs)
	s.waits.CopyFrom(&o.waits)
	s.parked.CopyFrom(&o.parked)
	s.hits, s.misses, s.latSum, s.latCount = o.hits, o.misses, o.latSum, o.latCount
	s.attrib, s.attribLast = o.attrib, o.attribLast
}

// copyFrom makes s a copy of o, reusing s's storage.
func (s *l2State) copyFrom(o *l2State) {
	s.cache.tags.copyFrom(&o.cache.tags)
	s.hits, s.misses, s.recalls, s.invs = o.hits, o.misses, o.recalls, o.invs
}

// copyFrom makes h a copy of o, reusing h's storage.
func (h *homeState) copyFrom(o *homeState) {
	h.dirTab.CopyFrom(&o.dirTab)
	h.dir = append(h.dir[:0], o.dir...)
	h.txnTab.CopyFrom(&o.txnTab)
	h.txns.CopyFrom(&o.txns)
	h.pending.CopyFrom(&o.pending)
}

// SystemState is the whole hierarchy's saved state. Memory nodes are
// saved in memNodes order, which is deterministic by construction.
type SystemState struct {
	l1s   []l1State
	l2s   []l2State
	home  homeState
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
	st.home.copyFrom(&s.homeState)
	for i, mn := range s.memNodes {
		st.mems[i].CopyFrom(&s.Mems[mn].ctrl.ControllerState)
		st.reads[i].CopyFrom(&s.Mems[mn].reads)
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
	s.homeState.copyFrom(&st.home)
	for i, mn := range s.memNodes {
		s.Mems[mn].ctrl.CopyFrom(&st.mems[i])
		s.Mems[mn].reads.CopyFrom(&st.reads[i])
	}
}
