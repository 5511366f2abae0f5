package noc

import (
	"fmt"
	"testing"

	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// resetRun is a network with sampling and attribution on and a
// synthetic injector.
type resetRun struct {
	eng *sim.Engine
	net *Network
	inj *SyntheticInjector
	rec *attrib.Recorder
}

func newResetRun(t testing.TB, cfg *Config) *resetRun {
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableSampling(50)
	inj := NewSyntheticInjector(net, UniformRandom(), 0, DataBytes, VNetReq, 3)
	eng.Register(inj)
	rec := attrib.NewRecorder()
	net.SetAttrib(rec)
	eng.SetAttrib(rec)
	return &resetRun{eng, net, inj, rec}
}

// point runs a load point from the network's current state and returns
// everything it measured: every router, NI and engine metric, every
// attribution count (the engine's counts every evaluation, so a
// component that stays awake where it would sleep shows), every sampled
// series and the injector's counts.
func (r *resetRun) point(rate float64, cycles int64) string {
	r.inj.reset(rate, 5)
	r.eng.Run(cycles)
	reg := stats.NewRegistry()
	r.net.RegisterMetrics(reg)
	r.eng.RegisterMetrics(reg)
	snap := reg.Snapshot("")
	r.rec.FoldInto(snap.Values)
	out := fmt.Sprintf("injected %d received %d latency %v\n", r.inj.Injected(), r.inj.Received(), r.inj.AvgLatency())
	for _, k := range snap.Keys() {
		out += fmt.Sprintf("%s %v\n", k, snap.Values[k])
	}
	for _, rt := range r.net.Routers() {
		out += fmt.Sprintf("router%d xbar %v links", rt.ID(), xbarSamples(rt))
		for d := Direction(0); d < numDirections; d++ {
			if c := rt.LinkColumn(d); c >= 0 {
				out += fmt.Sprint(" ", r.net.Samples().Column(c))
			}
		}
		out += "\n"
	}
	return out
}

// TestNetworkResetMatchesFreshBuild: a network reset mid-flight at a
// saturated load point, with packets half-sent, waiting for a VC and
// staged at every NI, returns every flit and envelope to its pool, and
// then runs a load point bit-identically to a freshly built network,
// counters, attribution and sampled series included. A second reset
// mid-flight at a lighter load would return twice any flit the first
// left behind in a slot the lighter load never refilled.
func TestNetworkResetMatchesFreshBuild(t *testing.T) {
	for _, cfg := range slabConfigs() {
		label := cfgLabel(cfg)
		want := newResetRun(t, cfg).point(0.05, 600)

		r := newResetRun(t, cfg)
		for i, rate := range []float64{0.3, 0.1} {
			r.point(rate, 300)
			if half, waiting, incoming := niLoad(r.net); i == 0 && (half == 0 || waiting == 0 || incoming == 0) {
				t.Fatalf("%s: the reset meets %d half-sent, %d waiting and %d incoming packets; want all three",
					label, half, waiting, incoming)
			}
			r.eng.Reset()
			r.net.Reset()
			if err := r.net.CheckDrained(); err != nil {
				t.Fatalf("%s: after Reset: %v", label, err)
			}
		}
		if got := r.point(0.05, 600); got != want {
			t.Fatalf("%s: a reset network measured\n%s\na fresh one\n%s", label, got, want)
		}
	}
}

// TestNetworkResetAllocatesNothing: once its pools have held what a
// saturated point leaves in flight, resetting the network mid-flight and
// running the point again allocates nothing.
func TestNetworkResetAllocatesNothing(t *testing.T) {
	r := newResetRun(t, SnackPlatform(4, 4, true))
	again := func() {
		r.eng.Reset()
		r.net.Reset()
		r.inj.reset(0.3, 5)
		r.eng.Run(300)
	}
	again()
	if allocs := testing.AllocsPerRun(5, again); allocs != 0 {
		t.Errorf("a mid-flight reset and rerun allocated %.1f objects, want 0", allocs)
	}
}
