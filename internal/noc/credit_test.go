package noc

import (
	"reflect"
	"testing"

	"snacknoc/internal/sim"
)

// portUser drives one inject port the way an RCU does: Update in
// Evaluate, one Send attempt in Advance; sent records the cycles whose
// Send found a credit.
type portUser struct {
	port *InjectPort
	dst  NodeID
	sent []int64
}

func (u *portUser) Name() string         { return "port-user" }
func (u *portUser) Evaluate(cycle int64) { u.port.Update(cycle) }
func (u *portUser) Advance(cycle int64) {
	if u.port.Send(u.dst, nil, cycle) {
		u.sent = append(u.sent, cycle)
	}
}

// TestInjectPortCreditTiming pins the one-cycle credit latency on the
// compute port, whose Send is the only reader of credit counters in the
// Advance phase. With one VC of depth one the port holds a single credit:
// the flit sent in Advance(T) crosses the router's switch at T+1, which
// returns the slot in Advance(T+1) — and that credit must not be usable by
// the Send of Advance(T+1), whether the port's user advances before or
// after its router, only by the Send of T+2.
func TestInjectPortCreditTiming(t *testing.T) {
	run := func(userFirst bool) []int64 {
		eng := sim.NewEngine()
		u := &portUser{dst: 1}
		if userFirst {
			eng.Register(u)
		}
		net, err := New(eng, SnackPlatformCustom(4, 4, true, 1, 1, 32))
		if err != nil {
			t.Fatal(err)
		}
		consumed := 0
		for i := 0; i < net.Cfg().Nodes(); i++ {
			port := net.AttachCompute(NodeID(i), consumeAll{&consumed})
			if i == 0 {
				u.port = port
			}
		}
		if !userFirst {
			eng.Register(u)
		}
		eng.Run(12)
		if consumed == 0 {
			t.Fatal("no token reached its destination")
		}
		return u.sent
	}
	want := []int64{0, 2, 4, 6, 8, 10}
	for _, userFirst := range []bool{true, false} {
		if got := run(userFirst); !reflect.DeepEqual(got, want) {
			t.Errorf("user registered before router = %v: Send succeeded at cycles %v, want %v", userFirst, got, want)
		}
	}
}

// TestNIWaitingPacketNeedsAnEvent pins a known deviation of the NI model
// (ROADMAP item 4): its idle fast path looks at incoming, active and the
// arrival state but not at waitingCount, so a packet waiting behind a
// just-finished single-flit transmission is VC-allocated only on a cycle
// in which a credit, an ejected flit or a new injection happens to be
// present — here the credit of the first packet's flit, RouterLatency
// cycles after a VC was already free. The cycles are recorded from the
// credit-wire implementation; fixing the fast path moves them (and every
// digest), which must be a deliberate change.
func TestNIWaitingPacketNeedsAnEvent(t *testing.T) {
	for _, tc := range []struct {
		cfg           *Config
		first, second int64 // cycles the two packets are VC-allocated
	}{
		{BiNoCHS(4, 4), 1, 3},
		{DAPPER(4, 4), 1, 5},
	} {
		eng, net := build(t, tc.cfg)
		eng.Register(&source{net: net, sched: []srcEntry{
			{cycle: 0, pkt: &Packet{Src: 0, Dst: 3, VNet: VNetReq, SizeBytes: CtrlBytes}},
			{cycle: 0, pkt: &Packet{Src: 0, Dst: 3, VNet: VNetReq, SizeBytes: CtrlBytes}},
		}})
		ni := net.NI(0)
		var alloc []int64
		for cycle := int64(0); cycle < 20; cycle++ {
			eng.Step()
			// A packet leaves the waiting queue when it is given a VC.
			for int(ni.injected.Value())-ni.waitingCount > len(alloc) {
				alloc = append(alloc, cycle)
			}
		}
		if want := []int64{tc.first, tc.second}; !reflect.DeepEqual(alloc, want) {
			t.Errorf("%s: packets VC-allocated at cycles %v, want %v", tc.cfg.Name, alloc, want)
		}
	}
}
