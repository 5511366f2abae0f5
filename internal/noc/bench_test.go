package noc

import (
	"testing"

	"snacknoc/internal/sim"
)

// BenchmarkRouterEvaluate measures the per-cycle cost of a 4x4 mesh at
// four operating points, so router hot-path regressions show up
// independently of the full figure benchmarks:
//
//   - 1-flit: a single packet in flight on DAPPER — the single-flit VA
//     bypass and occupancy gating, the paper's dominant (§II mostly idle)
//     case, on a 3-cycle router whose flits wait out the pipeline.
//   - 1-flit-snack: the same on the SnackNoC platform (priority
//     arbitration), whose 1-cycle router moves a lone flit in the one
//     step of the zero-load fast path.
//   - half-load: DAPPER, uniform random at roughly half saturation.
//   - saturated: DAPPER, uniform random past saturation, allocators
//     always busy.
func BenchmarkRouterEvaluate(b *testing.B) {
	snack := func(w, h int) *Config { return SnackPlatform(w, h, true) }
	cases := []struct {
		name string
		cfg  func(w, h int) *Config
		rate float64 // injected packets per node per cycle
	}{
		{"1-flit", DAPPER, 0},
		{"1-flit-snack", snack, 0},
		{"half-load", DAPPER, 0.15},
		{"saturated", DAPPER, 0.60},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			net, err := New(eng, tc.cfg(4, 4))
			if err != nil {
				b.Fatal(err)
			}
			if tc.rate > 0 {
				inj := NewSyntheticInjector(net, UniformRandom(), tc.rate, DataBytes, 0, 42)
				eng.Register(inj)
				eng.Run(5000) // steady state before measuring
			} else {
				// Keep exactly one single-flit packet circulating: a fresh
				// packet is injected as soon as the previous one ejects.
				var inject func(cycle int64)
				sink := delivered(func(cycle int64) { inject(cycle) })
				net.AttachClient(15, sink)
				inject = func(cycle int64) {
					net.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, SizeBytes: 1}, cycle)
				}
				inject(0)
				eng.Run(100)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				eng.Step()
			}
			b.StopTimer()
			if net.TotalEjected() == 0 {
				b.Fatal("no traffic flowed")
			}
		})
	}
}

type delivered func(cycle int64)

func (d delivered) Deliver(p *Packet, cycle int64) { d(cycle) }
