// Package sim provides the cycle-driven simulation kernel that underpins
// every timing model in this repository: the NoC, the memory controllers,
// the CMP cores, and the SnackNoC compute layer.
//
// The kernel advances global time in discrete cycles. Every hardware block
// registers as a Component; each cycle the engine runs a two-phase update:
//
//  1. Evaluate — every component reads the committed state of its inputs
//     (as of the end of the previous cycle) and computes its next state.
//  2. Advance — every component commits that next state.
//
// Two-phase update makes component ordering irrelevant, which is the same
// determinism guarantee cycle-accurate RTL simulation provides and the
// property Garnet2.0 relies on for router pipelines.
//
// The engine also provides a lightweight event queue for blocks that sleep
// for long, data-dependent intervals (for example a DRAM access returning
// tCAS cycles later). Events scheduled for cycle C run at the start of
// cycle C, before Evaluate. The queue is a calendar queue (time wheel):
// see timewheel.go for the layout and the overflow policy.
//
// # Quiescence
//
// Components that are idle most of the time (the paper's §II premise:
// median router utilization is ≤~10%) may additionally implement Quiescer.
// After each Advance the engine asks such a component whether it has any
// work pending; if not, the component leaves the active list and its
// Evaluate/Advance are skipped until something wakes it — an input wire
// write (see Handle.WakeAt) or a scheduled event. On wake the engine calls
// CatchUp with the number of fully skipped cycles so per-cycle statistics
// (utilization denominators, sampled time series, occupancy histograms)
// remain bit-identical to the always-evaluate execution.
//
// The active list is materialized: the engine keeps the awake components
// in a dedicated slice ordered by registration index, so each cycle costs
// O(awake) rather than O(registered) — on a 128-node mesh with the paper's
// ~10% utilization most routers and NIs are asleep at any instant.
// Wake-ups are buffered and merged into the active list once per cycle,
// so a burst of wakes costs one merge instead of one sorted insertion
// each (the insertion scan dominated whole-run profiles before).
//
// One engine drives one simulation, on the calling goroutine: every
// component of a run registers on it, so nothing a component touches is
// shared with another thread.
package sim

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/flat"
	"snacknoc/internal/stats"
)

// Component is a hardware block driven by the engine. Evaluate must not
// modify state observable by other components; Advance commits it.
type Component interface {
	// Evaluate computes the component's next state from committed inputs.
	Evaluate(cycle int64)
	// Advance commits the state computed by Evaluate.
	Advance(cycle int64)
}

// Quiescer is optionally implemented by components that can sleep while
// idle. Quiescent is consulted after the component's Advance; it must
// return true only when no input wire, queue, or staged output holds work
// — a quiescent component with no future wake-up would otherwise
// deadlock. CatchUp is invoked on wake (and when a Run returns) with the
// number of whole cycles the component was skipped for, so it can replay
// the idle observations its statistics would have recorded.
type Quiescer interface {
	Quiescent() bool
	CatchUp(idleCycles int64)
}

// Settler is optionally implemented by components that stay awake but
// defer per-cycle statistics — a group that steps only its members that
// hold work owes the others the cycles they sat out. Settle pays them, up
// to the component's own next turn; Engine.Settle calls it, so whoever
// reads counters after Run, RunUntil or an explicit Settle reads them
// fully paid.
type Settler interface {
	Settle()
}

// Handle is the engine's bookkeeping for one registered component — its
// place in the active list and its sleep state — and doubles as the wake
// handle Register returns to wake-up producers. A nil handle is valid and
// inert, so wiring code can attach wakers unconditionally. Handles live in
// engine-owned slabs (see Reserve), never individually on the heap.
type Handle struct {
	e   *Engine
	c   Component
	q   Quiescer // nil when the component never sleeps
	idx int      // registration index; the active list stays sorted by it
	sleep
}

// sleep is a component's sleep bookkeeping; a checkpoint copies it whole.
type sleep struct {
	asleep  bool
	sleptAt int64 // last cycle executed before sleeping
	wakeAt  int64 // earliest pending wake event (0 = none)
}

// WakeAt ensures the component is awake (and caught up) no later than the
// start of cycle at. Calling it for an already-awake component is free;
// redundant or superseded wake-ups are deduplicated. Producers call it
// whenever they hand a sleeping consumer work that becomes visible at a
// future cycle.
//
// A wake-up for the next cycle aimed at a component that Step put to
// sleep earlier in this cycle's Advance phase (sleptAt is the current
// cycle only then) files no event: the component has missed no cycle, so
// it rejoins the active list at the next merge with nothing to catch up —
// exactly what the event would have done one cycle later.
func (h *Handle) WakeAt(at int64) {
	if h == nil || !h.asleep {
		return
	}
	e := h.e
	if at <= e.cycle || (at == e.cycle+1 && h.sleptAt == e.cycle) {
		e.wake(h)
		return
	}
	if h.wakeAt != 0 && h.wakeAt <= at {
		return // an earlier wake-up is already scheduled
	}
	h.wakeAt = at
	// Wake events carry the component directly instead of a closure, so
	// the per-wake path (every wire push to a sleeper) allocates nothing.
	e.fileEvent(at, nil, nil, 0, h)
}

// Engine owns global simulated time and the registered components.
type Engine struct {
	engineScalars
	// slab is the unused tail of the current handle chunk; Register
	// carves from it.
	slab  []Handle
	comps []*Handle
	// active holds the awake components in registration order; Step
	// iterates it instead of scanning comps for asleep flags.
	active []*Handle
	// settlers are the registered components that implement Settler.
	settlers []Settler
	// woken buffers components re-activated since the last merge; Step
	// merges it into active (restoring registration order) before the
	// Evaluate phase, so N wakes cost one merge instead of N insertions.
	woken []*Handle
	wheel timeWheel
	// quiesce gates the active list; disabled it reproduces the classic
	// evaluate-everything kernel (used by equivalence tests).
	quiesce bool
}

// engineScalars is an engine's mutable state outside its component
// handles and event wheel; a checkpoint copies it whole.
type engineScalars struct {
	cycle int64
	seq   int64
	// fnScheduled counts Schedule and ScheduleCall events only, not
	// wake-ups: callbacks are model behaviour, while whether a wake-up
	// files an event depends on when the woken component last slept.
	fnScheduled int64
	// stopped lets a component or sampler end Run early.
	stopped bool
	// attrib counts per-step evaluation volume for attribution.
	attrib attrib.Counts
}

// NewEngine returns an engine at cycle 0 with no components.
func NewEngine() *Engine {
	return &Engine{quiesce: true}
}

// Reset rewinds the engine to the state its builders left it in: cycle
// 0, no pending event, zeroed counts and every registered component
// awake in the active list, in registration order — what NewEngine and
// the same Register calls produce. Components, their handles and the
// quiescence setting stay; the components' own state is their layers'
// to reset. It allocates nothing.
func (e *Engine) Reset() {
	e.engineScalars = engineScalars{}
	e.active = e.active[:0]
	for _, st := range e.comps {
		st.sleep = sleep{}
		e.active = append(e.active, st)
	}
	clear(e.woken)
	e.woken = e.woken[:0]
	e.wheel.reset()
}

// Register adds a component to the engine and returns its wake handle.
// Components are evaluated in registration order, but two-phase update
// makes the order immaterial to simulated behaviour.
func (e *Engine) Register(c Component) *Handle {
	if c == nil {
		panic("sim: Register called with nil component")
	}
	if len(e.slab) == 0 {
		e.Reserve(max(registerChunk, len(e.comps)/8))
	}
	st := &e.slab[0]
	e.slab = e.slab[1:]
	*st = Handle{e: e, c: c, idx: len(e.comps)}
	st.q, _ = c.(Quiescer)
	if s, ok := c.(Settler); ok {
		e.settlers = append(e.settlers, s)
	}
	e.comps = append(e.comps, st)
	e.active = append(e.active, st)
	return st
}

// registerChunk is the fewest handles an unreserved Register allocates at
// once; past 8·registerChunk components it reserves an eighth of those
// registered, so growth is geometric, as a flat.Pool's is. (Reserving as
// many again as are registered costs a mesh engine 128 spare handles for
// the one injector registered after the network.)
const registerChunk = 8

// Reserve makes room for n more Register calls in two allocations: the
// handle slab, and one slab of handle pointers carved into the component
// list, the active list and the wake buffer. A builder that knows its
// component count — a mesh registers two per node — does not pay two
// objects per component.
func (e *Engine) Reserve(n int) {
	if n <= len(e.slab) {
		return
	}
	e.slab = make([]Handle, n)
	need := len(e.comps) + n
	if need <= cap(e.comps) {
		return
	}
	// The active list and the wake buffer never hold more than every
	// registered component.
	ptrs := make([]*Handle, 3*need)
	e.comps = append(flat.Carve(&ptrs, need)[:0], e.comps...)
	e.active = append(flat.Carve(&ptrs, need)[:0], e.active...)
	e.woken = append(ptrs[:0], e.woken...)
}

// Cycle returns the current simulated cycle. During Evaluate/Advance it is
// the cycle being executed; after Run it is the next cycle to execute.
func (e *Engine) Cycle() int64 { return e.cycle }

// SetAttrib attaches the engine's evaluation-volume counts to rec as
// one "engine" component (nil returns at once).
func (e *Engine) SetAttrib(rec *attrib.Recorder) {
	if rec == nil {
		return
	}
	rec.Attach(attrib.KindEngine, "engine", &e.attrib)
}

// Callee receives the typed events filed with ScheduleCall.
type Callee interface {
	// OnCall runs at the start of the cycle the event was scheduled for,
	// with the argument given to ScheduleCall.
	OnCall(arg, cycle int64)
}

// Schedule runs fn at the start of the given absolute cycle. Scheduling in
// the past (or the current cycle, whose event phase already ran) is an
// error, reported by panic because it is always a model bug.
func (e *Engine) Schedule(at int64, fn func()) {
	e.fnScheduled++
	e.fileEvent(at, fn, nil, 0, nil)
}

// ScheduleCall is Schedule without the closure: callee.OnCall(arg, at)
// runs at the start of cycle at. A callee that is a pointer costs no
// allocation per event, and a checkpoint carries (callee, arg) by value.
// Call events and Schedule callbacks due the same cycle fire in the order
// they were scheduled, and both count as scheduled callbacks.
func (e *Engine) ScheduleCall(at int64, callee Callee, arg int64) {
	e.fnScheduled++
	e.fileEvent(at, nil, callee, arg, nil)
}

// fileEvent enqueues a callback (fn), a call (callee, arg) or a wake-up
// (wake) — exactly one of the three — for the start of cycle at, with
// the next sequence number.
func (e *Engine) fileEvent(at int64, fn func(), callee Callee, arg int64, wake *Handle) {
	if at <= e.cycle {
		panic(fmt.Sprintf("sim: Schedule(%d) at or before current cycle %d", at, e.cycle))
	}
	e.seq++
	i := e.wheel.alloc()
	ev := e.wheel.at(i)
	ev.cycle, ev.seq, ev.fn, ev.callee, ev.arg, ev.wake = at, e.seq, fn, callee, arg, wake
	e.wheel.schedule(e.cycle, i)
}

// ScheduleAfter runs fn delay cycles from now (delay must be >= 1).
func (e *Engine) ScheduleAfter(delay int64, fn func()) {
	e.Schedule(e.cycle+delay, fn)
}

// SetQuiescence enables or disables the active list. It is enabled by
// default; disabling it forces every component to be evaluated every cycle
// (waking and catching up current sleepers), which the equivalence tests
// use as the reference execution.
func (e *Engine) SetQuiescence(on bool) {
	e.quiesce = on
	if !on {
		for _, st := range e.comps {
			if st.asleep {
				e.wake(st)
			}
		}
		e.mergeWoken()
	}
}

// wake marks a sleeping component awake, replaying the statistics of the
// cycles it skipped, and buffers it for the next active-list merge. It
// will be evaluated from the cycle the merge precedes onward.
func (e *Engine) wake(st *Handle) {
	if !st.asleep {
		return
	}
	st.asleep = false
	st.wakeAt = 0
	e.woken = append(e.woken, st)
	if idle := e.cycle - st.sleptAt - 1; idle > 0 {
		st.q.CatchUp(idle)
	}
}

// mergeWoken folds the wake buffer into the active list, restoring
// registration order, so the evaluation order of awake components is
// identical to the scan-everything kernel.
func (e *Engine) mergeWoken() {
	w := e.woken
	if len(w) == 0 {
		return
	}
	// Wake events fire in schedule order, so w is usually already sorted
	// by registration index; insertion sort is O(n) then and n is small.
	for i := 1; i < len(w); i++ {
		for j := i; j > 0 && w[j-1].idx > w[j].idx; j-- {
			w[j-1], w[j] = w[j], w[j-1]
		}
	}
	a := e.active
	n := len(a)
	a = append(a, w...)
	// Backward merge: the read index into the old tail of a is always
	// behind the write index, so merging in place is safe.
	i, k := n-1, len(a)-1
	for j := len(w) - 1; j >= 0; k-- {
		if i >= 0 && a[i].idx > w[j].idx {
			a[k] = a[i]
			i--
		} else {
			a[k] = w[j]
			j--
		}
	}
	e.active = a
	for i := range w {
		w[i] = nil
	}
	e.woken = w[:0]
}

// Settle replays idle statistics for components that are still asleep, up
// to (but not including) the current cycle, and has every Settler pay
// what it deferred. Run and RunUntil call it before returning so
// observers always read fully caught-up statistics; callers driving Step
// directly should call it before reading per-cycle counters.
func (e *Engine) Settle() {
	e.mergeWoken()
	for _, s := range e.settlers {
		s.Settle()
	}
	for _, st := range e.comps {
		if !st.asleep {
			continue
		}
		if idle := e.cycle - st.sleptAt - 1; idle > 0 {
			st.q.CatchUp(idle)
			st.sleptAt = e.cycle - 1
		}
	}
}

// Step executes exactly one cycle: pending events, then Evaluate on all
// active components, then Advance. Components whose Quiescent reports no
// pending work leave the active list after their Advance.
func (e *Engine) Step() {
	if e.wheel.pending > 0 {
		e.runEvents()
	}
	if len(e.woken) > 0 {
		e.mergeWoken()
	}
	act := e.active
	e.attrib.Add(attrib.EngineEvals, int64(len(act)))
	for _, st := range act {
		st.c.Evaluate(e.cycle)
	}
	// Compact the active list in place: sleepers drop out, everyone else
	// keeps their relative (registration) order.
	keep := act[:0]
	for _, st := range act {
		st.c.Advance(e.cycle)
		if e.quiesce && st.q != nil && st.q.Quiescent() {
			st.asleep = true
			st.sleptAt = e.cycle
		} else {
			keep = append(keep, st)
		}
	}
	// Clear dropped tail slots so sleeping components stay reachable only
	// through comps (no stale aliases pinning re-slice writes).
	for i := len(keep); i < len(act); i++ {
		act[i] = nil
	}
	e.active = keep
	e.cycle++
}

// runEvents executes every event due at the current cycle, in schedule
// order. Each record is copied out and freed before its event runs: the
// event may file others, and a slab doubling moves every record.
func (e *Engine) runEvents() {
	w := &e.wheel
	for i := w.collect(e.cycle); i != 0; {
		ev := w.at(i)
		fn, callee, arg, wake, next := ev.fn, ev.callee, ev.arg, ev.wake, ev.next
		w.release(i)
		w.pending--
		i = next
		switch {
		case wake != nil:
			e.wake(wake)
		case callee != nil:
			callee.OnCall(arg, e.cycle)
		default:
			fn()
		}
	}
}

// RegisterMetrics names the engine's own state in reg: the simulated
// cycle, registered and awake component counts, and how many callbacks
// were ever scheduled. All are gauges read at snapshot time, so
// registration adds no per-cycle cost.
func (e *Engine) RegisterMetrics(reg *stats.Registry) {
	reg.AddGauge("engine.cycle", func() float64 { return float64(e.cycle) })
	reg.AddGauge("engine.components", func() float64 { return float64(len(e.comps)) })
	reg.AddGauge("engine.awake", func() float64 { return float64(len(e.active) + len(e.woken)) })
	reg.AddGauge("engine.events.scheduled", func() float64 { return float64(e.fnScheduled) })
}

// Run executes up to n cycles, stopping early if Stop is called.
// It returns the number of cycles actually executed.
func (e *Engine) Run(n int64) int64 {
	var done int64
	for done < n && !e.stopped {
		e.Step()
		done++
	}
	e.Settle()
	return done
}

// RunUntil executes cycles until pred returns true (checked after each
// cycle) or max cycles elapse. It returns the number executed and whether
// pred was satisfied.
func (e *Engine) RunUntil(pred func() bool, max int64) (int64, bool) {
	var done int64
	for done < max && !e.stopped {
		e.Step()
		done++
		if pred() {
			e.Settle()
			return done, true
		}
	}
	e.Settle()
	return done, pred()
}
