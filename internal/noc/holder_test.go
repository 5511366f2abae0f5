package noc_test

import (
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// TestInFlightPayloadsHaveOneHolder pins the invariant the checkpoint
// layer's plain payload copy relies on: every token and cache message
// the network holds is held once — by one buffered, parked or wired flit
// or one queued envelope — so copying each holder's payload aliases
// nothing. It is checked at the snapshot points of the checkpoint fork
// tests (a co-run with a kernel in flight and a cache-heavy one), after
// running on, and after each restore.
func TestInFlightPayloadsHaveOneHolder(t *testing.T) {
	lulesh := traffic.Scale(traffic.LULESH(), 0.05)
	lulesh.Phases[0].StallEvery, lulesh.Phases[0].StallCycles = 200, 600
	legs := []struct {
		name string
		prof *traffic.Profile
	}{
		{"mixed-stalls", lulesh},
		{"cache-heavy", traffic.Scale(traffic.Graph500(), 0.2)},
	}
	var tokens, msgs int
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			eng, target := buildCoRun(t, leg.prof)
			eng.Run(4096)
			if oneHolder(t, target.Net, &tokens, &msgs) == 0 {
				t.Fatal("nothing in flight at the snapshot point")
			}
			st := checkpoint.Take(target)
			eng.Run(3000)
			oneHolder(t, target.Net, &tokens, &msgs)
			for fork := 0; fork < 2; fork++ {
				st.Restore()
				oneHolder(t, target.Net, &tokens, &msgs)
				eng.Run(1000)
			}
		})
	}
	if tokens == 0 || msgs == 0 {
		t.Fatalf("%d tokens and %d cache messages checked, want some of each", tokens, msgs)
	}
}

// oneHolder fails the test if a payload is held twice. It returns how
// many payloads it checked and counts the tokens and cache messages.
func oneHolder(t *testing.T, net *noc.Network, tokens, msgs *int) int {
	t.Helper()
	seen := make(map[any]bool)
	for _, p := range net.Payloads() {
		if seen[p] {
			t.Fatalf("payload %p (%T) has two holders", p, p)
		}
		seen[p] = true
		switch p.(type) {
		case *core.InstrToken, *core.DataToken:
			*tokens++
		case *cache.Msg:
			*msgs++
		}
	}
	return len(seen)
}

// buildCoRun is the checkpoint tests' co-run: a CMP benchmark on the
// cores with a Reduction kernel submitted at cycle 1.
func buildCoRun(t *testing.T, prof *traffic.Profile) (*sim.Engine, checkpoint.Target) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.SnackPlatform(4, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	work, err := cpu.NewWorkload(eng, sys, prof, 2020)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := core.AttachToSystem(eng, sys, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := experiments.CompileKernel(cpu.KernelReduction, experiments.DefaultKernelDims(), 16, 2020)
	if err != nil {
		t.Fatal(err)
	}
	eng.ScheduleAfter(1, func() {
		if !plat.CPM.Submit(prog, eng.Cycle(), func(*core.Result) {}) {
			t.Error("CPM busy at submission")
		}
	})
	return eng, checkpoint.Target{Eng: eng, Net: net, Sys: sys, Work: work, Plat: plat}
}
