package cache_test

import (
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// TestWorkloadDrainsCacheLayer runs a scaled CMP benchmark to completion
// and requires the cache layer to hold nothing afterwards: every pooled
// message returned, every transaction and parked-event slot free.
func TestWorkloadDrainsCacheLayer(t *testing.T) {
	sys := runWorkload(t, traffic.Scale(traffic.CoMD(), 0.1))
	if err := sys.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestL2BanksHoldOnlyFilledSets: after a short CMP run every tag store
// holds exactly its filled sets' ways, and an L2 bank fills no more
// than the 64 of its 1 024 sets that its home's blocks index on a 4×4
// mesh.
func TestL2BanksHoldOnlyFilledSets(t *testing.T) {
	sys := runWorkload(t, traffic.Scale(traffic.Graph500(), 0.02))
	for i := range sys.L2s {
		for _, c := range []*cache.Cache{sys.L1s[i].Cache(), sys.L2s[i].Cache()} {
			if filled := c.FilledSets(); c.HeldLines() != filled*c.Ways() {
				t.Errorf("node %d, %d-set store: %d lines held for %d filled sets of %d ways",
					i, c.Sets(), c.HeldLines(), filled, c.Ways())
			}
		}
		if filled := sys.L2s[i].Cache().FilledSets(); filled == 0 || filled > 64 {
			t.Errorf("l2 %d filled %d sets, want 1 to 64", i, filled)
		}
	}
}

// runWorkload runs a CMP benchmark to completion on a 4×4 system, then
// lets trailing writebacks and acks land, and returns the system.
func runWorkload(t *testing.T, p *traffic.Profile) *cache.System {
	t.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.BiNoCHS(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cpu.NewWorkload(eng, sys, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cpu.Run(eng, w, 50_000_000); !ok {
		t.Fatal("workload did not complete")
	}
	eng.Run(200000)
	return sys
}
