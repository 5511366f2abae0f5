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

// EngineState is a saved engine.
type EngineState struct {
	engineScalars
	comps     []sleep
	activeIdx []int
	events    []eventSnap
}

// eventSnap is one pending event by value: a callback's closure (shared
// with the live engine), a call's callee and argument, or — wakeIdx >= 0
// — the registration index of a wake target.
type eventSnap struct {
	cycle, seq int64
	fn         func()
	callee     Callee
	arg        int64
	wakeIdx    int
}

// SnapshotState captures the engine at a settled point (immediately
// after Run/RunUntil, which call Settle). It panics mid-cycle — with
// buffered wake-ups the active list is not in its committed form.
func (e *Engine) SnapshotState() *EngineState {
	if len(e.woken) != 0 {
		panic("sim: SnapshotState with unmerged wake-ups (snapshot only between runs)")
	}
	w := &e.wheel
	s := &EngineState{
		engineScalars: e.engineScalars,
		comps:         make([]sleep, len(e.comps)),
		activeIdx:     make([]int, len(e.active)),
		events:        make([]eventSnap, 0, w.pending),
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
	for _, slot := range w.slots {
		for i := slot.head; i != 0; i = w.at(i).next {
			s.events = append(s.events, snapEvent(w.at(i)))
		}
	}
	for _, i := range w.overflow {
		s.events = append(s.events, snapEvent(w.at(i)))
	}
	return s
}

func snapEvent(ev *event) eventSnap {
	es := eventSnap{cycle: ev.cycle, seq: ev.seq, fn: ev.fn, callee: ev.callee, arg: ev.arg, wakeIdx: -1}
	if ev.wake != nil {
		es.wakeIdx = ev.wake.idx
	}
	return es
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
	// Drop whatever the live run filed and re-file the saved events with
	// their original sequence numbers, so tie-breaking (and therefore
	// execution order) replays exactly. The slab, ring and heap keep
	// their size, so restoring onto an engine that has run allocates
	// nothing.
	w := &e.wheel
	w.reset()
	for _, es := range s.events {
		i := w.alloc()
		ev := w.at(i)
		ev.cycle, ev.seq, ev.fn, ev.callee, ev.arg = es.cycle, es.seq, es.fn, es.callee, es.arg
		if es.wakeIdx >= 0 {
			ev.wake = e.comps[es.wakeIdx]
		}
		w.schedule(e.cycle, i)
	}
}
