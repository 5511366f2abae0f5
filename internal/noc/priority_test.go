package noc

import (
	"testing"

	"snacknoc/internal/sim"
)

// runContention floods a comm stream (node 0 -> 3 over the NI) and a
// snack stream (node 1's compute port -> 3) through the shared routers
// of row 0 and reports each flow's delivered count after the window.
func runContention(t *testing.T, priority bool) (comm, snack int) {
	t.Helper()
	cfg := SnackPlatform(4, 4, priority)
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	commGot := 0
	net.AttachClient(3, countClient{&commGot})
	snackGot := 0
	var inj *InjectPort
	for i := 0; i < 16; i++ {
		if p := net.AttachCompute(NodeID(i), snackCounter{node: NodeID(i), got: &snackGot}); i == 1 {
			inj = p
		}
	}
	eng.Register(&contentionPump{net: net, port: inj})
	eng.Run(2000)
	return commGot, snackGot
}

type countClient struct{ n *int }

func (c countClient) Deliver(p *Packet, cycle int64) { *c.n++ }

type snackCounter struct {
	node NodeID
	got  *int
}

func (s snackCounter) OnArrival(f *Flit, cycle int64) bool {
	if s.node == 3 {
		*s.got++
	}
	return true
}

type contentionPump struct {
	net  *Network
	port *InjectPort
}

func (p *contentionPump) Name() string { return "contentionPump" }
func (p *contentionPump) Evaluate(cycle int64) {
	p.port.Update(cycle)
	// Saturating comm stream: 3-flit data packets every cycle.
	if p.net.NI(0).QueueLen(VNetResp) < 4 {
		p.net.Inject(&Packet{Src: 0, Dst: 3, VNet: VNetResp, SizeBytes: DataBytes}, cycle)
	}
}
func (p *contentionPump) Advance(cycle int64) {
	p.port.Send(3, "instr", false, cycle)
}

// TestPriorityArbitrationFavorsCommFlits checks the §III-D3 mechanism:
// under sustained contention for the row-0 links, enabling priority
// arbitration must raise communication throughput and suppress snack
// throughput relative to plain round-robin.
func TestPriorityArbitrationFavorsCommFlits(t *testing.T) {
	commOn, snackOn := runContention(t, true)
	commOff, snackOff := runContention(t, false)
	t.Logf("priority on: comm=%d snack=%d; off: comm=%d snack=%d", commOn, snackOn, commOff, snackOff)
	if commOn < commOff {
		t.Errorf("priority arbitration lowered comm throughput (%d < %d)", commOn, commOff)
	}
	if snackOn > snackOff {
		t.Errorf("priority arbitration raised snack throughput (%d > %d)", snackOn, snackOff)
	}
	if commOn == commOff && snackOn == snackOff {
		t.Error("arbitration mode had no effect under contention")
	}
}

// TestLoopTokensTraverseUnderPriority ensures snack flits still make
// progress (no starvation deadlock) while comm traffic has priority.
func TestLoopTokensTraverseUnderPriority(t *testing.T) {
	cfg := SnackPlatform(4, 4, true)
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A loop token with no consumer must keep circulating: count visits
	// at one node while comm traffic flows.
	visits := 0
	for i := 0; i < 16; i++ {
		i := i
		net.AttachCompute(NodeID(i), countingSink{node: NodeID(i), target: 5, visits: &visits})
	}
	pump := &loopPump{net: net}
	eng.Register(pump)
	eng.Run(3000)
	if visits < 10 {
		t.Fatalf("loop token visited node 5 only %d times in 3000 cycles", visits)
	}
}

type countingSink struct {
	node   NodeID
	target NodeID
	visits *int
}

func (s countingSink) OnArrival(f *Flit, cycle int64) bool {
	if f.Loop && s.node == s.target {
		*s.visits++
	}
	return false // never consume: the token circulates forever
}

type loopPump struct {
	net  *Network
	done bool
	n    int
}

func (p *loopPump) Name() string { return "loopPump" }
func (p *loopPump) Evaluate(cycle int64) {
	if !p.done {
		p.net.Inject(&Packet{
			Src: 0, Dst: p.net.Loop().Next(0),
			VNet: p.net.Cfg().SnackVNet, SizeBytes: 12, Loop: true,
			Payload: "token",
		}, cycle)
		p.done = true
	}
	// Continuous light comm traffic over the same mesh.
	if p.n < 1000 && cycle%3 == 0 {
		p.n++
		p.net.Inject(&Packet{Src: 1, Dst: 14, VNet: VNetReq, SizeBytes: CtrlBytes}, cycle)
	}
}
func (p *loopPump) Advance(int64) {}
