package noc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"snacknoc/internal/sim"
)

// drain runs eng until net passes CheckDrained, failing the test if it
// has not after limit cycles.
func drain(t *testing.T, eng *sim.Engine, net *Network, limit int64) {
	t.Helper()
	eng.RunUntil(func() bool { return net.CheckDrained() == nil }, limit)
	if err := net.CheckDrained(); err != nil {
		t.Fatalf("after %d cycles: %v", eng.Cycle(), err)
	}
}

// niLoad counts, over all NIs, the transmissions with some but not all
// flits sent, the packets waiting for a VC and the staged Inject calls.
func niLoad(net *Network) (half, waiting, incoming int) {
	for i := range net.nis {
		ni := &net.nis[i]
		waiting += ni.waitingCount
		incoming += len(ni.incoming)
		for _, tx := range ni.active {
			if 0 < tx.next && tx.next < tx.n {
				half++
			}
		}
	}
	return half, waiting, incoming
}

// TestNetworkDrainsPools: once a synthetic injector stops and the mesh
// empties, every flit and envelope is back in a pool and no NI holds a
// packet — on its own, and with a checkpoint restored over the loaded
// network on the way (restore must return what it overwrites and draw
// what it restores from the pools).
func TestNetworkDrainsPools(t *testing.T) {
	for _, restore := range []bool{false, true} {
		for _, cfg := range slabConfigs() {
			eng := sim.NewEngine()
			net, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			inj := NewSyntheticInjector(net, UniformRandom(), 0.08, DataBytes, VNetReq, 7)
			eng.Register(inj)
			eng.Run(300)
			label := fmt.Sprintf("%s/restore=%v", cfgLabel(cfg), restore)
			if flits, envelopes := net.Outstanding(); flits == 0 || envelopes == 0 {
				t.Fatalf("%s: %d flits and %d envelopes out mid-run: the run loaded nothing", label, flits, envelopes)
			}
			if restore {
				st, es := net.SnapshotState(nil), eng.SnapshotState()
				inj.Rate = 0.3 // a different, backed-up load for the restore to overwrite
				eng.Run(300)
				if half, waiting, incoming := niLoad(net); half == 0 || waiting == 0 || incoming == 0 {
					t.Fatalf("%s: the restore overwrites %d half-sent, %d waiting, %d incoming packets: want all three",
						label, half, waiting, incoming)
				}
				net.RestoreState(st, nil)
				net.RestoreState(st, nil) // and its own restored objects, once more
				eng.RestoreState(es)
			}
			inj.Rate = 0
			drain(t, eng, net, 20000)
			if net.TotalEjected() != net.TotalInjected() || net.TotalEjected() == 0 {
				t.Fatalf("%s: %d packets injected, %d ejected", label, net.TotalInjected(), net.TotalEjected())
			}
		}
	}
}

// TestInjectRoundTripAllocatesNothing: on a warm network a burst of
// single- and multi-flit messages on two vnets from several nodes —
// envelope, transmission record, flits, reassembly, delivery — run to
// drain allocates no object.
func TestInjectRoundTripAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	net, err := New(eng, DAPPER(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 16; i++ {
		net.AttachClient(NodeID(i), countClient{&got})
	}
	burst := false
	eng.Register(injectEach(func(cycle int64) {
		if !burst {
			return
		}
		burst = false
		for _, src := range []NodeID{0, 5, 10, 15} {
			for k := 0; k < 6; k++ {
				size := CtrlBytes
				if k%2 == 0 {
					size = DataBytes
				}
				net.InjectMsg(src, (src+NodeID(3+k))%16, k%2, size, nil, cycle)
			}
		}
	}))
	roundTrip := func() {
		burst = true
		eng.Run(300)
	}
	roundTrip() // first use fills the pools
	if err := net.CheckDrained(); err != nil || got != 24 {
		t.Fatalf("warm-up burst: %d of 24 delivered, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
		t.Errorf("a burst run to drain allocated %.1f objects, want 0", allocs)
	}
	if err := net.CheckDrained(); err != nil || got != 22*24 {
		t.Fatalf("measured bursts: %d of %d delivered, %v", got, 22*24, err)
	}
}

// injectEach is a component whose Evaluate is a function of the cycle.
type injectEach func(cycle int64)

func (f injectEach) Evaluate(cycle int64) { f(cycle) }
func (f injectEach) Advance(int64)        {}

// arrival is one packet's arrival at its destination.
type arrival struct {
	id      uint64
	cycle   int64
	payload any
}

// TestMidInjectionCheckpoint snapshots a network at a cycle where some
// NI holds a half-sent packet (0 < next < n), some a packet waiting for
// a VC and some a staged Inject call, runs on so pools and queues move,
// restores, and requires the replay to deliver every packet at the cycle
// the first run did, with the same NI counters and latencies.
func TestMidInjectionCheckpoint(t *testing.T) {
	const snapAt, stopAt, endAt = 120, 200, 3000
	for _, cfg := range []*Config{BiNoCHS(4, 4), DAPPER(4, 4)} {
		label := cfg.Name
		eng := sim.NewEngine()
		net, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// One log per node, so a difference names the node.
		logs := make([][]arrival, cfg.Nodes())
		for i := range logs {
			i := i
			net.AttachClient(NodeID(i), clientFunc(func(p *Packet, cycle int64) {
				logs[i] = append(logs[i], arrival{p.ID, cycle, p.Payload})
			}))
		}
		// The injector is a function of the cycle alone, so a rewound
		// engine replays it without any state of its own to restore.
		eng.Register(injectEach(func(cycle int64) {
			if cycle >= stopAt {
				return
			}
			for n := 0; n < cfg.Nodes(); n++ {
				h := (uint64(cycle)*64 + uint64(n) + 1) * 0x9E3779B97F4A7C15
				h ^= h >> 29
				if h%100 < 45 {
					dst := NodeID(h >> 8 % uint64(cfg.Nodes()))
					if dst == NodeID(n) {
						dst = NodeID((n + 1) % cfg.Nodes())
					}
					size := CtrlBytes
					if h>>40&3 != 0 {
						size = 4 * DataBytes
					}
					net.InjectMsg(NodeID(n), dst, int(h>>50&1), size, h, cycle)
				}
			}
		}))
		eng.Run(snapAt)
		half, waiting, incoming := niLoad(net)
		if half == 0 || waiting == 0 || incoming == 0 {
			t.Fatalf("%s: %d half-sent, %d waiting, %d incoming packets at the snapshot: want all three",
				label, half, waiting, incoming)
		}
		st, es := net.SnapshotState(nil), eng.SnapshotState()
		before := make([]int, len(logs))
		for i := range logs {
			before[i] = len(logs[i])
		}
		type outcome struct {
			logs      [][]arrival
			nis       []niScalars
			latencies []float64
		}
		finish := func() (o outcome) {
			eng.Run(endAt - eng.Cycle())
			if err := net.CheckDrained(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := range logs {
				o.logs = append(o.logs, slices.Clone(logs[i][before[i]:]))
				logs[i] = logs[i][:before[i]]
				o.nis = append(o.nis, net.nis[i].niScalars)
				for v := range cfg.VNets {
					o.latencies = append(o.latencies, net.nis[i].AvgLatency(v))
				}
			}
			return o
		}
		first := finish()
		net.RestoreState(st, nil)
		eng.RestoreState(es)
		replay := finish()
		if net.TotalEjected() != net.TotalInjected() || len(first.logs[0]) == 0 {
			t.Fatalf("%s: %d injected, %d ejected, %d at node 0 after the snapshot",
				label, net.TotalInjected(), net.TotalEjected(), len(first.logs[0]))
		}
		if !reflect.DeepEqual(first, replay) {
			for i := range first.logs {
				if !reflect.DeepEqual(first.logs[i], replay.logs[i]) {
					t.Errorf("%s: node %d deliveries differ:\n first  %v\n replay %v", label, i, first.logs[i], replay.logs[i])
				}
			}
			t.Fatalf("%s: the replay from the mid-injection snapshot differs from the first run", label)
		}
	}
}
