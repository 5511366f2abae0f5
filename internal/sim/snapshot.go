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
	for _, slot := range e.wheel.slots {
		for _, ev := range slot {
			s.events = append(s.events, snapEvent(ev))
		}
	}
	for _, ev := range e.wheel.overflow {
		s.events = append(s.events, snapEvent(ev))
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
	// execution order) replays exactly.
	for i, slot := range e.wheel.slots {
		if slot != nil {
			e.wheel.release(slot)
			e.wheel.slots[i] = nil
		}
	}
	e.wheel.overflow = e.wheel.overflow[:0]
	e.wheel.pending = 0
	for _, es := range s.events {
		ev := e.newEvent()
		ev.cycle, ev.seq, ev.fn, ev.callee, ev.arg = es.cycle, es.seq, es.fn, es.callee, es.arg
		if es.wakeIdx >= 0 {
			ev.wake = e.comps[es.wakeIdx]
		}
		e.wheel.schedule(e.cycle, ev)
	}
}
