package sim

import "fmt"

// Checkpoint support. SnapshotState captures everything the engine will
// consult on future cycles — the clock, the per-component sleep states,
// the active-list order, and every pending event — and RestoreState
// writes it back onto the same engine, rewinding simulated time. The
// state is immutable once taken (restore copies out of it), so one
// snapshot restores any number of times: that is the fork primitive
// internal/checkpoint builds its platform pool on.
//
// Restore must target the engine the snapshot came from: pending
// callbacks are closures over the registered components and pending
// calls name their callee by pointer, so the component set (and
// registration order) is part of the snapshot's identity.

// EngineState is a saved engine. Its wheel is the live one's copy, slot
// for slot: the event slab with its free list, the ring and the overflow
// heap. A restore onto the same engine keeps every record's wake handle
// and callee valid.
type EngineState struct {
	engineScalars
	comps     []sleep
	activeIdx []int
	wheel     timeWheel
}

// SnapshotState captures the engine at a settled point (immediately
// after Run/RunUntil, which call Settle). It panics mid-cycle — with
// buffered wake-ups the active list is not in its committed form.
func (e *Engine) SnapshotState() *EngineState {
	if len(e.woken) != 0 {
		panic("sim: SnapshotState with unmerged wake-ups (snapshot only between runs)")
	}
	s := &EngineState{
		engineScalars: e.engineScalars,
		comps:         make([]sleep, len(e.comps)),
		activeIdx:     make([]int, len(e.active)),
	}
	for i, st := range e.comps {
		s.comps[i] = st.sleep
	}
	// The active list's order is history-dependent (in-place compaction
	// plus registration-order merges), so it is saved as an ordered index
	// list, not recomputed.
	for i, st := range e.active {
		s.activeIdx[i] = st.idx
	}
	s.wheel.copyFrom(&e.wheel)
	return s
}

// RestoreState rewinds the engine to a saved state. The component set
// must be unchanged since the snapshot was taken.
func (e *Engine) RestoreState(s *EngineState) {
	if len(s.comps) != len(e.comps) {
		panic(fmt.Sprintf("sim: RestoreState component count %d, snapshot has %d",
			len(e.comps), len(s.comps)))
	}
	e.engineScalars = s.engineScalars
	for i, st := range e.comps {
		st.sleep = s.comps[i]
	}
	// Rebuild the active list in its saved order.
	e.active = e.active[:0]
	for _, idx := range s.activeIdx {
		e.active = append(e.active, e.comps[idx])
	}
	for i := range e.woken {
		e.woken[i] = nil
	}
	e.woken = e.woken[:0]
	e.wheel.copyFrom(&s.wheel)
}

// copyFrom makes w a slot-for-slot copy of o, reusing w's storage, so
// restoring onto an engine that has run allocates nothing.
func (w *timeWheel) copyFrom(o *timeWheel) {
	w.evs.CopyFrom(&o.evs)
	w.slots = append(w.slots[:0], o.slots...)
	w.overflow = append(w.overflow[:0], o.overflow...)
	w.pending = o.pending
}
