package sim

import (
	"fmt"
	"testing"

	"snacknoc/internal/stats"
)

// callLog is a Callee that records what it was called with.
type callLog struct {
	log *[]string
}

func (c *callLog) OnCall(arg, cycle int64) {
	*c.log = append(*c.log, fmt.Sprintf("call%d@%d", arg, cycle))
}

func scheduledGauge(e *Engine) float64 {
	reg := stats.NewRegistry()
	e.RegisterMetrics(reg)
	return reg.Snapshot("").Values["engine.events.scheduled"]
}

func TestScheduleCallInterleavesWithSchedule(t *testing.T) {
	e := NewEngine()
	var log []string
	callee := &callLog{log: &log}
	e.ScheduleCall(3, callee, 0)
	e.Schedule(3, func() { log = append(log, "fn1") })
	e.ScheduleCall(3, callee, 2)
	e.Schedule(3, func() { log = append(log, "fn3") })
	e.ScheduleCall(2, callee, 7)
	if got := scheduledGauge(e); got != 5 {
		t.Fatalf("engine.events.scheduled = %v, want 5 (calls count exactly as callbacks do)", got)
	}
	e.Run(4)
	want := "[call7@2 call0@3 fn1 call2@3 fn3]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("events fired as %s, want %s", got, want)
	}
}

func TestScheduleCallPastPanics(t *testing.T) {
	e := NewEngine()
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleCall in the past did not panic")
		}
	}()
	e.ScheduleCall(5, &callLog{}, 0)
}

// TestRestoreRefilesCallEvents forks a sharded engine with call events
// pending on a shard, in the ring and in the overflow heap, interleaved
// with callbacks due the same cycles: every fork must fire them in the
// original schedule order (the saved seq), whatever was filed since.
func TestRestoreRefilesCallEvents(t *testing.T) {
	e := NewEngine()
	subs := e.Partition(2)
	var log []string
	callee := &callLog{log: &log}
	sh := subs[1]
	far := int64(3 * wheelSize)
	sh.ScheduleCall(far, callee, 1) // overflow heap
	sh.ScheduleCall(4, callee, 2)
	sh.Schedule(4, func() { log = append(log, "fn@4") })
	sh.ScheduleCall(4, callee, 3)
	sh.Schedule(far, func() { log = append(log, "fn@far") })
	e.ScheduleCall(4, callee, 4) // the root's own wheel
	e.Run(2)
	st := e.SnapshotState()
	scheduled := scheduledGauge(e)

	finish := func() string {
		log = log[:0]
		e.Run(far + 2 - e.Cycle())
		return fmt.Sprint(log)
	}
	want := fmt.Sprintf("[call4@4 call2@4 fn@4 call3@4 call1@%d fn@far]", far)
	if got := finish(); got != want {
		t.Fatalf("uninterrupted run fired %s, want %s", got, want)
	}
	for fork := 0; fork < 2; fork++ {
		e.RestoreState(st)
		if got := scheduledGauge(e); got != scheduled {
			t.Fatalf("fork %d: engine.events.scheduled = %v after restore, want %v", fork, got, scheduled)
		}
		// A later schedule takes a later seq: it must fire after the
		// re-filed events due the same cycle.
		sh.ScheduleCall(4, callee, 9)
		wantFork := fmt.Sprintf("[call4@4 call2@4 fn@4 call3@4 call9@4 call1@%d fn@far]", far)
		if got := finish(); got != wantFork {
			t.Fatalf("fork %d fired %s, want %s", fork, got, wantFork)
		}
	}
}
