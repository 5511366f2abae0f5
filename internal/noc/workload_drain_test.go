package noc_test

import (
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// TestWorkloadDrainsNetwork runs a scaled CMP benchmark to completion —
// coherence requests and multi-flit data responses on every vnet the
// cache layer uses — and requires the network to hold nothing afterwards:
// every pooled flit and envelope returned, every NI and reassembly slot
// empty.
func TestWorkloadDrainsNetwork(t *testing.T) {
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.DAPPER(4, 4))
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
	if net.TotalEjected() == 0 || net.TotalEjected() != net.TotalInjected() {
		t.Fatalf("%d packets injected, %d ejected", net.TotalInjected(), net.TotalEjected())
	}
	if err := net.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}
