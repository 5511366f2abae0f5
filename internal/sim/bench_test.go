package sim

import "testing"

// benchChain is a typed-event chain that reschedules itself forever.
type benchChain struct {
	e *Engine
	h int64
}

func (c *benchChain) OnCall(arg, cycle int64) { c.e.ScheduleCall(cycle+c.h, c, arg) }

// BenchmarkEngineSchedule measures the event-queue hot path in isolation:
// self-rescheduling events across near (in-wheel), far (overflow-heap),
// and mixed horizons. The mixed case is the realistic NoC profile — wire
// arrivals a few cycles out, sleeper wake-ups hundreds to thousands of
// cycles out. The Call leg is the mixed profile filed with ScheduleCall
// instead of closures; like the others it must report 0 allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	cases := []struct {
		name     string
		horizons []int64
		call     bool
	}{
		{"near", []int64{1, 2, 3, 5, 8}, false},
		{"mixed", []int64{1, 3, 700, 9000, 2}, false},
		{"far", []int64{wheelSize, 3 * wheelSize, 9 * wheelSize}, false},
		{"Call", []int64{1, 3, 700, 9000, 2}, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine()
			// 64 live event chains, each perpetually rescheduling itself at
			// its own horizon, round-robined over the case's horizon set.
			const chains = 64
			var fns [chains]func()
			for i := 0; i < chains; i++ {
				h := tc.horizons[i%len(tc.horizons)]
				if tc.call {
					e.ScheduleCall(1+h, &benchChain{e: e, h: h}, int64(i))
					continue
				}
				i := i
				fns[i] = func() { e.Schedule(e.cycle+h, fns[i]) }
				e.Schedule(1+h, fns[i])
			}
			// One lap of the longest horizon fills the event pool and the
			// wheel's spare slots: the timed loop sees the steady state even
			// at -benchtime 1x.
			e.Run(10 * wheelSize)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				e.Step()
			}
		})
	}
}

// BenchmarkEngineStepIdle measures the per-cycle floor of an engine whose
// components are all asleep: the cost every simulated cycle pays even when
// nothing happens.
func BenchmarkEngineStepIdle(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Register(&benchSleeper{})
	}
	e.Run(2) // let every component go quiescent
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step()
	}
}

type benchSleeper struct{ idle int64 }

func (s *benchSleeper) Name() string      { return "bench-sleeper" }
func (s *benchSleeper) Evaluate(int64)    {}
func (s *benchSleeper) Advance(int64)     {}
func (s *benchSleeper) Quiescent() bool   { return true }
func (s *benchSleeper) CatchUp(idl int64) { s.idle += idl }
