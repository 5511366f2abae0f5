package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// firing records one executed event for order checking.
type firing struct {
	cycle int64
	id    int
}

// TestTimeWheelMatchesHeapOrder is the scheduler's property test: across
// randomized schedules spanning in-wheel, boundary, and overflow horizons
// — including events scheduled from inside other events — the execution
// order must be exactly what the old binary heap produced: ascending
// cycle, ties broken by schedule order.
func TestTimeWheelMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		e := NewEngine()
		var got []firing
		var want []firing
		nextID := 0
		var add func(at int64)
		add = func(at int64) {
			id := nextID
			nextID++
			// want is appended in schedule order; the stable sort below
			// keeps that order within a cycle, reproducing heap tie-break.
			want = append(want, firing{cycle: at, id: id})
			e.Schedule(at, func() {
				got = append(got, firing{cycle: e.Cycle(), id: id})
				// A third of events reschedule follow-ups, exercising
				// scheduling from inside the event phase (wire pushes,
				// DRAM returns) at mixed horizons.
				if rng.Intn(3) == 0 && nextID < 400 {
					h := horizons[rng.Intn(len(horizons))]
					add(e.Cycle() + h)
				}
			})
		}
		for i := 0; i < 40; i++ {
			add(1 + rng.Int63n(3*wheelSize))
		}
		// Drain until no events remain (rescheduling is capped, so this
		// terminates); a fixed window would miss late-scheduled events.
		for e.wheel.pending > 0 {
			e.Step()
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].cycle < want[j].cycle })
		if len(got) != len(want) {
			t.Fatalf("round %d: fired %d events, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: firing %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestRandomWakeAtAccounting drives Quiescer components with randomized
// WakeAt patterns — duplicates, supersedes, near and far horizons, the
// shapes wires and the Quiescer CatchUp path produce — and checks the
// invariant the statistics replay depends on: every cycle is either
// evaluated or replayed as idle, exactly once.
func TestRandomWakeAtAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		e := NewEngine()
		const n = 8
		sleepers := make([]*sleeper, n)
		handles := make([]*Handle, n)
		for i := range sleepers {
			sleepers[i] = &sleeper{pending: rng.Intn(3)}
			handles[i] = e.Register(sleepers[i])
		}
		var total int64
		for leg := 0; leg < 6; leg++ {
			// Hand random sleepers work and wake them at random horizons,
			// sometimes redundantly (later wake after an earlier one).
			for k := 0; k < 4; k++ {
				i := rng.Intn(n)
				at := e.Cycle() + 1 + rng.Int63n(2*wheelSize)
				sleepers[i].pending++
				handles[i].WakeAt(at)
				if rng.Intn(2) == 0 {
					handles[i].WakeAt(at + rng.Int63n(50)) // superseded
				}
			}
			run := 1 + rng.Int63n(wheelSize)
			total += e.Run(run)
		}
		for i, s := range sleepers {
			if got := int64(len(s.evals)) + s.idle; got != total {
				t.Fatalf("round %d sleeper %d: evaluated+idle = %d cycles, want %d",
					round, i, got, total)
			}
		}
	}
}

var horizons = []int64{1, 2, 7, wheelSize - 1, wheelSize, wheelSize + 1, 4 * wheelSize}

// TestTimeWheelGrowsLazily: the ring starts small, doubles only as far as
// the furthest in-horizon event demands, and re-files occupied slots on
// the way without disturbing firing order.
func TestTimeWheelGrowsLazily(t *testing.T) {
	e := NewEngine()
	if len(e.wheel.slots) != 0 {
		t.Fatalf("a fresh engine holds a %d-slot ring, want none", len(e.wheel.slots))
	}
	var got []firing
	at := func(cycle int64, id int) {
		e.Schedule(cycle, func() { got = append(got, firing{cycle: e.Cycle(), id: id}) })
	}
	// Distances chosen so every doubling happens with earlier events
	// already filed, some of them sharing a cycle.
	cycles := []int64{3, 3, 15, 17, 9, 40, 17, 100, 3, 260, 40, 700, 15, 1000}
	for id, c := range cycles {
		at(c, id)
		want := wheelMin
		for int64(want) <= c {
			want *= 2
		}
		if id > 0 && len(e.wheel.slots) < want {
			t.Fatalf("after scheduling cycle %d the ring has %d slots, want >= %d", c, len(e.wheel.slots), want)
		}
	}
	if len(e.wheel.slots) != wheelSize {
		t.Fatalf("ring grew to %d slots, want %d", len(e.wheel.slots), wheelSize)
	}
	e.Run(1001)
	var want []firing
	for id, c := range cycles {
		want = append(want, firing{cycle: c, id: id})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].cycle < want[j].cycle })
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// An engine that never looks further than a few cycles ahead keeps the
	// smallest ring.
	near := NewEngine()
	for i := 0; i < 200; i++ {
		near.Schedule(near.Cycle()+1+int64(i%5), func() {})
		near.Run(3)
	}
	if len(near.wheel.slots) != wheelMin {
		t.Fatalf("near-horizon engine grew its ring to %d slots, want %d", len(near.wheel.slots), wheelMin)
	}
}

// fewestMallocs returns the objects the measured half of a try allocates,
// the fewest over three tries: each try sets up afresh and returns the
// work to measure, and an allocation elsewhere in the process only adds.
func fewestMallocs(try func() (measure func())) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		measure := try()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measure()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// hopper is an event chain that refiles itself at the next of a cycle of
// horizons each time it fires, with the same callee and argument.
type hopper struct {
	e        *Engine
	horizons []int64
	k        int
}

func (h *hopper) OnCall(arg, cycle int64) {
	h.k = (h.k + 1) % len(h.horizons)
	h.e.ScheduleCall(cycle+h.horizons[h.k], h, arg)
}

// TestEventSlabSteadyStateAllocatesNothing pins the event slab: once an
// engine has run through every horizon, 10 000 cycles of scheduling —
// eight chains, so up to eight events due in one cycle, hopping between
// near, in-ring and overflow-heap horizons — allocate nothing.
func TestEventSlabSteadyStateAllocatesNothing(t *testing.T) {
	horizons := []int64{1, 2, 3, 5, 8, 700, wheelSize + 3, 3 * wheelSize}
	got := fewestMallocs(func() func() {
		e := NewEngine()
		for i := range 8 {
			e.ScheduleCall(1, &hopper{e: e, horizons: horizons, k: i}, int64(i))
		}
		e.Run(40 * wheelSize)
		return func() { e.Run(10_000) }
	})
	if got != 0 {
		t.Fatalf("10 000 steady-state cycles allocated %d objects, want 0", got)
	}
}

// TestFilingEventsGrowsTheSlabGeometrically: filing M events on a fresh
// engine costs the ring once and the event slab once per doubling from
// its first 32 records — at most log2(M/32)+2 objects, not one per
// event or per chunk of events.
func TestFilingEventsGrowsTheSlabGeometrically(t *testing.T) {
	for _, m := range []int{32, 100, 1024, 5000} {
		var e *Engine
		calls := &callCounter{}
		got := fewestMallocs(func() func() {
			e = NewEngine()
			return func() {
				for i := range m {
					e.ScheduleCall(1+int64(i%8), calls, 0)
				}
			}
		})
		limit := uint64(bits.Len(uint((m-1)/eventChunk))) + 2
		if got > limit {
			t.Errorf("filing %d events allocated %d objects, want at most %d", m, got, limit)
		}
		if e.wheel.pending != m {
			t.Fatalf("%d events pending, want %d", e.wheel.pending, m)
		}
	}
}

// TestRestoreOntoGrownEngineAllocatesNothing: restoring a snapshot with
// events in the ring and the overflow heap, and components asleep with
// wake-ups pending, onto the engine it came from, after that engine has
// run on and filed more, allocates nothing.
func TestRestoreOntoGrownEngineAllocatesNothing(t *testing.T) {
	calls := &callCounter{}
	got := fewestMallocs(func() func() {
		e := NewEngine()
		for range 4 {
			h := e.Register(&sleeper{pending: 1})
			e.Run(2)
			h.WakeAt(e.Cycle() + 50)
		}
		for i := range 40 {
			e.ScheduleCall(e.Cycle()+1+int64(i%5)*300, calls, int64(i))
		}
		e.ScheduleCall(e.Cycle()+4*wheelSize, calls, 40)
		snap := e.SnapshotState()
		for i := range 200 {
			e.ScheduleCall(e.Cycle()+1+int64(i), calls, 0)
		}
		e.Run(100)
		e.RestoreState(snap)
		return func() { e.RestoreState(snap) }
	})
	if got != 0 {
		t.Fatalf("RestoreState onto a grown engine allocated %d objects, want 0", got)
	}
}

// callCounter counts the calls it receives.
type callCounter struct{ n int }

func (c *callCounter) OnCall(arg, cycle int64) { c.n++ }
