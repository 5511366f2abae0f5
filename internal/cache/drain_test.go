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
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.BiNoCHS(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cpu.NewWorkload(eng, sys, traffic.Scale(traffic.CoMD(), 0.1), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cpu.Run(eng, w, 50_000_000); !ok {
		t.Fatal("workload did not complete")
	}
	eng.Run(200000) // trailing writebacks and acks
	if err := sys.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}
