package sim

import (
	"fmt"
	"testing"
)

type recorder struct {
	name     string
	evals    []int64
	advances []int64
}

func (r *recorder) Name() string         { return r.name }
func (r *recorder) Evaluate(cycle int64) { r.evals = append(r.evals, cycle) }
func (r *recorder) Advance(cycle int64)  { r.advances = append(r.advances, cycle) }

func TestEngineStepAdvancesCycle(t *testing.T) {
	e := NewEngine()
	if e.Cycle() != 0 {
		t.Fatalf("new engine at cycle %d, want 0", e.Cycle())
	}
	e.Step()
	if e.Cycle() != 1 {
		t.Fatalf("after one step cycle = %d, want 1", e.Cycle())
	}
}

func TestEngineCallsComponentsEveryCycle(t *testing.T) {
	e := NewEngine()
	r := &recorder{name: "r"}
	e.Register(r)
	e.Run(3)
	want := []int64{0, 1, 2}
	if len(r.evals) != 3 || len(r.advances) != 3 {
		t.Fatalf("evals=%v advances=%v, want 3 each", r.evals, r.advances)
	}
	for i, w := range want {
		if r.evals[i] != w || r.advances[i] != w {
			t.Fatalf("cycle %d: eval=%d advance=%d, want %d", i, r.evals[i], r.advances[i], w)
		}
	}
}

func TestEngineTwoPhaseOrdering(t *testing.T) {
	// All Evaluates in a cycle must precede all Advances.
	e := NewEngine()
	var log []string
	a := &phaseLogger{id: "a", log: &log}
	b := &phaseLogger{id: "b", log: &log}
	e.Register(a)
	e.Register(b)
	e.Step()
	want := []string{"a.eval", "b.eval", "a.adv", "b.adv"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

type phaseLogger struct {
	id  string
	log *[]string
}

func (p *phaseLogger) Name() string   { return p.id }
func (p *phaseLogger) Evaluate(int64) { *p.log = append(*p.log, p.id+".eval") }
func (p *phaseLogger) Advance(int64)  { *p.log = append(*p.log, p.id+".adv") }

func TestScheduleRunsAtRequestedCycle(t *testing.T) {
	e := NewEngine()
	var fired []int64
	e.Schedule(5, func() { fired = append(fired, e.Cycle()) })
	e.Schedule(2, func() { fired = append(fired, e.Cycle()) })
	e.ScheduleAfter(7, func() { fired = append(fired, e.Cycle()) })
	e.Run(10)
	want := []int64{2, 5, 7}
	if len(fired) != 3 {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestScheduleSameCycleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(3, func() { order = append(order, i) })
	}
	e.Run(4)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule in the past did not panic")
		}
	}()
	e.Schedule(3, func() {})
}

func TestStopEndsRunEarly(t *testing.T) {
	e := NewEngine()
	e.Schedule(4, func() { e.Stop() })
	done := e.Run(100)
	if done != 5 {
		t.Fatalf("ran %d cycles, want 5 (stop during cycle 4)", done)
	}
	if !e.Stopped() {
		t.Fatal("engine not stopped")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	hit := false
	e.Schedule(6, func() { hit = true })
	done, ok := e.RunUntil(func() bool { return hit }, 100)
	if !ok || done != 7 {
		t.Fatalf("RunUntil = (%d, %v), want (7, true)", done, ok)
	}
	done, ok = e.RunUntil(func() bool { return false }, 3)
	if ok || done != 3 {
		t.Fatalf("RunUntil = (%d, %v), want (3, false)", done, ok)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	NewEngine().Register(nil)
}

func TestEventsRunBeforeEvaluate(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Register(&phaseLogger{id: "c", log: &log})
	e.Schedule(1, func() { log = append(log, "event") })
	e.Run(2)
	// cycle 0: c.eval c.adv; cycle 1: event c.eval c.adv
	if log[2] != "event" || log[3] != "c.eval" {
		t.Fatalf("event did not precede Evaluate: %v", log)
	}
}

func TestResumeClearsStopLatch(t *testing.T) {
	e := NewEngine()
	r := &recorder{name: "r"}
	e.Register(r)
	e.Schedule(2, func() { e.Stop() })
	if done := e.Run(10); done != 3 {
		t.Fatalf("ran %d cycles, want 3 (stop during cycle 2)", done)
	}
	// Regression: the stop latch used to be permanent, making a stopped
	// engine unusable for stop/inspect/resume measurement windows.
	if done := e.Run(10); done != 0 {
		t.Fatalf("stopped engine ran %d cycles, want 0", done)
	}
	e.Resume()
	if e.Stopped() {
		t.Fatal("Stopped() still true after Resume")
	}
	if done := e.Run(4); done != 4 {
		t.Fatalf("resumed engine ran %d cycles, want 4", done)
	}
	want := []int64{0, 1, 2, 3, 4, 5, 6}
	if len(r.evals) != len(want) {
		t.Fatalf("evals = %v, want %v", r.evals, want)
	}
	for i, w := range want {
		if r.evals[i] != w {
			t.Fatalf("evals = %v, want %v", r.evals, want)
		}
	}
}

// sleeper is a Quiescer: it holds `pending` work items, consumes one per
// cycle, and sleeps when none remain. CatchUp accumulates replayed idle
// cycles so tests can check the skipped-cycle accounting exactly.
type sleeper struct {
	recorder
	pending  int
	idle     int64
	catchUps int
}

func (s *sleeper) Advance(cycle int64) {
	s.recorder.Advance(cycle)
	if s.pending > 0 {
		s.pending--
	}
}
func (s *sleeper) Quiescent() bool    { return s.pending == 0 }
func (s *sleeper) CatchUp(idle int64) { s.idle += idle; s.catchUps++ }

func TestQuiescentComponentIsSkipped(t *testing.T) {
	e := NewEngine()
	s := &sleeper{recorder: recorder{name: "s"}, pending: 2}
	e.Register(s)
	e.Run(10)
	// Cycles 0 and 1 drain the two work items; the component sleeps after
	// cycle 1 and cycles 2..9 are skipped but replayed by Settle.
	if len(s.evals) != 2 || s.evals[0] != 0 || s.evals[1] != 1 {
		t.Fatalf("evals = %v, want [0 1]", s.evals)
	}
	if s.idle != 8 {
		t.Fatalf("idle = %d, want 8", s.idle)
	}
	if got := int64(len(s.evals)) + s.idle; got != 10 {
		t.Fatalf("evaluated+idle = %d cycles, want 10", got)
	}
}

func TestWakeAtResumesWithExactCatchUp(t *testing.T) {
	e := NewEngine()
	s := &sleeper{recorder: recorder{name: "s"}, pending: 1}
	h := e.Register(s)
	e.Run(3) // evaluates cycle 0, sleeps; Settle replays cycles 1-2
	if len(s.evals) != 1 || s.idle != 2 {
		t.Fatalf("after first run: evals=%v idle=%d, want [0] and 2", s.evals, s.idle)
	}
	// Hand the sleeper work that becomes visible at cycle 6.
	s.pending = 1
	h.WakeAt(6)
	h.WakeAt(7) // superseded by the earlier wake-up; must be deduplicated
	e.Run(5)    // cycles 3..7: idle 3-5, evaluate 6, re-sleep, idle 7
	wantEvals := []int64{0, 6}
	if len(s.evals) != len(wantEvals) {
		t.Fatalf("evals = %v, want %v", s.evals, wantEvals)
	}
	for i, w := range wantEvals {
		if s.evals[i] != w {
			t.Fatalf("evals = %v, want %v", s.evals, wantEvals)
		}
	}
	// Every one of the 8 cycles must be either evaluated or replayed once.
	if got := int64(len(s.evals)) + s.idle; got != 8 {
		t.Fatalf("evaluated+idle = %d cycles, want 8 (evals=%v idle=%d)", got, s.evals, s.idle)
	}
}

// waker hands each of its targets one work item in its Advance at cycle
// at, waking it for the cycle its item becomes visible.
type waker struct {
	recorder
	at      int64
	targets []*sleeper
	handles []*Handle
	visible []int64 // cycles after at
}

func (w *waker) Advance(cycle int64) {
	w.recorder.Advance(cycle)
	if cycle != w.at {
		return
	}
	for i, s := range w.targets {
		s.pending = 1
		w.handles[i].WakeAt(cycle + w.visible[i])
	}
}

// TestSameAdvanceWakeFilesNoEvent pins the same-phase wake: a component
// that Step put to sleep earlier in this Advance phase and is handed work
// for the next cycle rejoins the active list directly. It files no wheel
// event, never has CatchUp called, and is evaluated next cycle. A wake
// further out, or aimed at a component that slept in an earlier cycle,
// still goes through the wheel and catches up exactly.
func TestSameAdvanceWakeFilesNoEvent(t *testing.T) {
	e := NewEngine()
	a := &sleeper{recorder: recorder{name: "a"}, pending: 4}    // sleeps after cycle 3
	b := &sleeper{recorder: recorder{name: "b"}, pending: 4}    // sleeps after cycle 3
	l := &sleeper{recorder: recorder{name: "long"}, pending: 1} // sleeps after cycle 0
	ha, hb, hl := e.Register(a), e.Register(b), e.Register(l)
	w := &waker{recorder: recorder{name: "w"}, at: 3,
		targets: []*sleeper{a, b, l}, handles: []*Handle{ha, hb, hl}, visible: []int64{1, 2, 1}}
	e.Register(w)
	for range 4 {
		e.Step()
	}
	if ha.asleep || ha.wakeAt != 0 || len(e.woken) != 1 || e.woken[0] != ha {
		t.Fatalf("after cycle 3: a asleep=%v wakeAt=%d, woken=%d; want awake, no wake-up pending, queued on woken",
			ha.asleep, ha.wakeAt, len(e.woken))
	}
	// b (two cycles out) and long (slept at cycle 0) each file one event.
	if e.wheel.pending != 2 || e.seq != 2 || !hb.asleep || !hl.asleep {
		t.Fatalf("after cycle 3: %d events pending (seq %d), b asleep=%v, long asleep=%v; want 2 events for b and long only",
			e.wheel.pending, e.seq, hb.asleep, hl.asleep)
	}
	e.Step() // cycle 4
	e.Step() // cycle 5
	want := map[*sleeper][]int64{a: {0, 1, 2, 3, 4}, b: {0, 1, 2, 3, 5}, l: {0, 4}}
	idle := map[*sleeper]int64{a: 0, b: 1, l: 3}
	for s, ev := range want {
		if fmt.Sprint(s.evals) != fmt.Sprint(ev) || s.idle != idle[s] {
			t.Errorf("%s: evals %v idle %d, want %v idle %d", s.name, s.evals, s.idle, ev, idle[s])
		}
	}
	if a.catchUps != 0 {
		t.Errorf("a: CatchUp called %d times, want never", a.catchUps)
	}
}

func TestWakeAtOnAwakeComponentIsFree(t *testing.T) {
	e := NewEngine()
	s := &sleeper{recorder: recorder{name: "s"}, pending: 100}
	h := e.Register(s)
	h.WakeAt(5) // awake: must not schedule anything
	e.Run(3)
	if s.idle != 0 || len(s.evals) != 3 {
		t.Fatalf("evals=%v idle=%d, want 3 evals and no idle", s.evals, s.idle)
	}
	var nh *Handle
	nh.WakeAt(5) // nil handles are inert
}

func TestSetQuiescenceOffEvaluatesEveryCycle(t *testing.T) {
	e := NewEngine()
	s := &sleeper{recorder: recorder{name: "s"}, pending: 0}
	e.Register(s)
	e.Run(3) // sleeps immediately after cycle 0
	if len(s.evals) != 1 {
		t.Fatalf("evals = %v, want just [0]", s.evals)
	}
	e.SetQuiescence(false) // wakes and catches up the sleeper
	if s.idle != 2 {
		t.Fatalf("idle = %d after disabling quiescence, want 2", s.idle)
	}
	e.Run(3)
	if len(s.evals) != 4 {
		t.Fatalf("evals = %v, want 4 entries with quiescence off", s.evals)
	}
	if got := int64(len(s.evals)) + s.idle; got != 6 {
		t.Fatalf("evaluated+idle = %d cycles, want 6", got)
	}
}

// TestReserveRegistersFromOneSlab: after Reserve(n), n Register calls
// allocate nothing — handles come out of the reserved slab.
func TestReserveRegistersFromOneSlab(t *testing.T) {
	const n = 64
	comps := make([]*sleeper, n)
	for i := range comps {
		comps[i] = &sleeper{}
	}
	var e *Engine
	reserve := testing.AllocsPerRun(10, func() {
		e = NewEngine()
		e.Reserve(n)
	})
	register := testing.AllocsPerRun(10, func() {
		e = NewEngine()
		e.Reserve(n)
		for _, c := range comps {
			e.Register(c)
		}
	})
	if register != reserve {
		t.Fatalf("%d reserved Register calls allocated %.0f objects beyond Reserve's %.0f", n, register-reserve, reserve)
	}
	if reserve > 4 {
		t.Fatalf("NewEngine+Reserve allocated %.0f objects, want <= 4", reserve)
	}
	// Handles stay valid and distinct without a reservation too.
	u := NewEngine()
	seen := make(map[*Handle]bool)
	for _, c := range comps {
		h := u.Register(c)
		if seen[h] {
			t.Fatal("Register returned the same handle twice")
		}
		seen[h] = true
	}
}

// deferrer stays awake and counts its cycles only when asked to settle,
// as a group that steps only its members with work does.
type deferrer struct {
	recorder
	paid, settles int64
}

func (d *deferrer) Settle() {
	d.paid = int64(len(d.evals))
	d.settles++
}

// TestSettleReachesSettlers: Run, RunUntil and an explicit Settle all
// have every Settler pay what it deferred, and a component that is not
// one costs nothing.
func TestSettleReachesSettlers(t *testing.T) {
	e := NewEngine()
	a, b := &deferrer{recorder: recorder{name: "a"}}, &deferrer{recorder: recorder{name: "b"}}
	e.Register(a)
	e.Register(&sleeper{recorder: recorder{name: "s"}})
	e.Register(b)
	e.Run(5)
	e.RunUntil(func() bool { return e.Cycle() == 8 }, 100)
	for _, d := range []*deferrer{a, b} {
		if d.paid != 8 || d.settles != 2 {
			t.Fatalf("%s: paid %d cycles in %d settles after Run(5) and RunUntil(cycle 8), want 8 in 2", d.name, d.paid, d.settles)
		}
	}
	e.Step()
	e.Settle()
	if a.paid != 9 || b.paid != 9 {
		t.Fatalf("after Step and Settle: a paid %d, b paid %d, want 9", a.paid, b.paid)
	}
}
