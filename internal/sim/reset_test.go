package sim

import (
	"fmt"
	"slices"
	"testing"
)

// resetRig is a small engine under test: three sleepers (two start with
// work, one without), an always-awake recorder, and a log the rig's
// callbacks and calls write to.
type resetRig struct {
	e       *Engine
	s       [3]*sleeper
	h       [3]*Handle
	plain   *recorder
	log     []string
	callLog *callLog
}

func newResetRig() *resetRig {
	r := &resetRig{e: NewEngine(), plain: &recorder{name: "plain"}}
	r.callLog = &callLog{log: &r.log}
	for i := range r.s {
		r.s[i] = &sleeper{recorder: recorder{name: fmt.Sprint("s", i)}}
		r.h[i] = r.e.Register(r.s[i])
	}
	r.e.Register(r.plain)
	r.initComponents()
	return r
}

// initComponents puts the components in their built state; the engine
// only rewinds itself.
func (r *resetRig) initComponents() {
	for i, s := range r.s {
		*s = sleeper{recorder: recorder{name: s.name}, pending: 2 - i}
	}
	*r.plain = recorder{name: "plain"}
	r.log = nil
}

// schedule files a fixed mix of callbacks, calls (one beyond the
// wheel's horizon) and wake-ups, runs 3000 cycles in three runs, and
// returns everything the engine decided: every component's evaluated
// and advanced cycles, its replayed idle cycles, the call log, the
// cycle and the engine's gauges.
func (r *resetRig) schedule() string {
	e := r.e
	r.h[1].WakeAt(2) // s1 is awake at cycle 0: no wake-up to file
	e.Schedule(3, func() { r.log = append(r.log, fmt.Sprint("fn@", e.Cycle())) })
	e.ScheduleCall(5, r.callLog, 1)
	e.ScheduleCall(2*wheelSize, r.callLog, 2)
	e.Run(10)
	r.s[2].pending = 1
	r.h[2].WakeAt(e.Cycle() + 7)
	e.Run(1000)
	r.s[0].pending = 3
	r.h[0].WakeAt(e.Cycle())
	e.Run(1990)
	out := fmt.Sprintf("cycle %d scheduled %v awake %d log %v plain %d/%d\n",
		e.Cycle(), scheduledGauge(e), len(e.active)+len(e.woken), r.log, len(r.plain.evals), len(r.plain.advances))
	for _, s := range r.s {
		out += fmt.Sprintf("%s evals %v advances %v idle %d catch-ups %d\n", s.name, s.evals, s.advances, s.idle, s.catchUps)
	}
	return out
}

// dirty runs the rig into a state Reset must undo: callbacks, calls
// and a wake-up pending in the ring and the overflow heap, sleepers
// asleep, and a wake-up not yet merged into the active list.
func (r *resetRig) dirty(t *testing.T) {
	e := r.e
	e.Schedule(50, func() { r.log = append(r.log, "stale fn") })
	e.ScheduleCall(60, r.callLog, 99)
	e.ScheduleCall(5*wheelSize, r.callLog, 98)
	e.Run(20)
	r.s[1].pending = 1
	r.h[1].WakeAt(e.Cycle() + 30)
	r.s[0].pending = 1
	r.h[0].WakeAt(e.Cycle()) // buffered until the next merge
	if len(e.woken) == 0 || e.wheel.pending < 4 || !r.h[2].asleep || e.attrib == (engineScalars{}).attrib {
		t.Fatalf("dirty rig: %d unmerged wakes, %d pending events, s2 asleep %v, counts %v; want wakes, events, a sleeper and counts",
			len(e.woken), e.wheel.pending, r.h[2].asleep, e.attrib)
	}
}

// TestResetReplaysLikeAFreshEngine: an engine reset after a run that
// left callbacks and calls pending, components asleep and a wake-up
// unmerged replays a schedule exactly as NewEngine with the same
// registrations does.
func TestResetReplaysLikeAFreshEngine(t *testing.T) {
	want := newResetRig().schedule()

	r := newResetRig()
	r.dirty(t)
	r.e.Reset()
	r.initComponents()
	if got := r.schedule(); got != want {
		t.Fatalf("reset engine replayed\n%s\nfresh engine\n%s", got, want)
	}

	// A second round from a finished run, not a dirty one.
	r.e.Reset()
	r.initComponents()
	if got := r.schedule(); got != want {
		t.Fatalf("engine reset after a full schedule replayed\n%s\nwant\n%s", got, want)
	}
}

// TestResetKeepsRegistrationOrder: Reset refills the active list in
// registration order, whatever order sleeps and wakes left it in.
func TestResetKeepsRegistrationOrder(t *testing.T) {
	r := newResetRig()
	r.dirty(t)
	r.e.Reset()
	if !slices.Equal(r.e.active, r.e.comps) || len(r.e.woken) != 0 || r.e.Cycle() != 0 {
		t.Fatalf("after Reset: %d active of %d, %d unmerged wakes, cycle %d",
			len(r.e.active), len(r.e.comps), len(r.e.woken), r.e.Cycle())
	}
}

// TestResetAllocatesNothing: resetting an engine that has run, with
// events pending everywhere, allocates nothing.
func TestResetAllocatesNothing(t *testing.T) {
	got := fewestMallocs(func() func() {
		r := newResetRig()
		r.dirty(t)
		return r.e.Reset
	})
	if got != 0 {
		t.Fatalf("Reset allocated %d objects, want 0", got)
	}
}
