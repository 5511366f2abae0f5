package noc

import (
	"testing"

	"snacknoc/internal/sim"
)

// TestCreditConservation: after heavy traffic fully drains, every output
// port's credit count must be restored to the configured buffer depth —
// credits are neither leaked nor duplicated. (The routers already panic
// on over-credit; this checks the under-credit direction.)
func TestCreditConservation(t *testing.T) {
	cfg := DAPPER(4, 4)
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for i := 0; i < 16; i++ {
		net.AttachClient(NodeID(i), countClient{&got})
	}
	rng := uint64(5)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	want := 0
	var sched []srcEntry
	for c := int64(0); c < 500; c++ {
		for s := 0; s < 16; s++ {
			if next(10) < 5 {
				d := next(16)
				if d == s {
					continue
				}
				size := CtrlBytes
				if next(2) == 0 {
					size = DataBytes
				}
				sched = append(sched, srcEntry{cycle: c,
					pkt: &Packet{Src: NodeID(s), Dst: NodeID(d), VNet: next(2), SizeBytes: size}})
				want++
			}
		}
	}
	eng.Register(&source{net: net, sched: sched})
	eng.RunUntil(func() bool { return got == want }, 5_000_000)
	if got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
	eng.Run(100) // let trailing credits land

	for _, r := range net.Routers() {
		for d := Direction(0); d < numDirections; d++ {
			out := r.outputs[d]
			if out == nil || d == Local {
				continue // ejection credits are modeled as unbounded
			}
			for v := range cfg.VNets {
				for c := int32(0); c < r.nvcOf[v]; c++ {
					slot := r.vnetOff[v] + c
					if out.credits[slot] != int32(cfg.VNets[v].BufDepth) {
						t.Errorf("%s out %s vnet %d vc %d: %d credits, want %d",
							r.Name(), d, v, c, out.credits[slot], cfg.VNets[v].BufDepth)
					}
					if out.busy&(1<<uint(slot)) != 0 {
						t.Errorf("%s out %s vnet %d vc %d still busy after drain", r.Name(), d, v, c)
					}
				}
			}
		}
		if r.occupancy != 0 {
			t.Errorf("%s still buffers %d flits after drain", r.Name(), r.occupancy)
		}
	}
}

// TestWormholeDelivery: multi-flit packets from many sources to one sink
// arrive complete and exactly once, under VC competition.
func TestWormholeDelivery(t *testing.T) {
	cfg := DAPPER(4, 4) // 5-flit data packets at 16 B channels
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ got map[uint64]int }
	r := rec{got: map[uint64]int{}}
	net.AttachClient(5, clientFunc(func(p *Packet, cycle int64) { r.got[p.ID]++ }))
	var sched []srcEntry
	for c := int64(0); c < 200; c++ {
		for _, s := range []NodeID{0, 3, 12, 15, 6} {
			sched = append(sched, srcEntry{cycle: c,
				pkt: &Packet{Src: s, Dst: 5, VNet: VNetResp, SizeBytes: DataBytes}})
		}
	}
	eng.Register(&source{net: net, sched: sched})
	eng.Run(30000)
	if len(r.got) != 1000 {
		t.Fatalf("delivered %d unique packets, want 1000", len(r.got))
	}
	for id, n := range r.got {
		if n != 1 {
			t.Fatalf("packet %d delivered %d times", id, n)
		}
	}
}

type clientFunc func(*Packet, int64)

func (f clientFunc) Deliver(p *Packet, cycle int64) { f(p, cycle) }

// TestQuiescenceEquivalence: running the same bursty traffic with the
// active list enabled and disabled must be cycle-identical — same
// delivery cycles, same crossbar moves, same utilization denominators,
// same sampled time series, same occupancy histogram. This is the
// correctness contract of the quiescence kernel: sleeping a router can
// save host work but must never change simulated behaviour or statistics.
func TestQuiescenceEquivalence(t *testing.T) {
	type delivery struct {
		id    uint64
		src   NodeID
		cycle int64
	}
	build := func(quiesce bool) (*sim.Engine, *Network, *[]delivery) {
		eng := sim.NewEngine()
		eng.SetQuiescence(quiesce)
		net, err := New(eng, DAPPER(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		net.EnableSampling(64)
		got := &[]delivery{}
		for i := 0; i < 16; i++ {
			net.AttachClient(NodeID(i), clientFunc(func(p *Packet, cycle int64) {
				*got = append(*got, delivery{p.ID, p.Src, cycle})
			}))
		}
		// Bursty schedule with long silent gaps, so the quiescent engine
		// actually sleeps routers between bursts.
		rng := uint64(11)
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int((rng >> 33) % uint64(n))
		}
		var sched []srcEntry
		for burst := 0; burst < 6; burst++ {
			start := int64(burst * 700) // ~650 idle cycles between bursts
			for c := start; c < start+50; c++ {
				for s := 0; s < 16; s++ {
					if next(10) < 4 {
						d := next(16)
						if d == s {
							continue
						}
						size := CtrlBytes
						if next(2) == 0 {
							size = DataBytes
						}
						sched = append(sched, srcEntry{cycle: c,
							pkt: &Packet{Src: NodeID(s), Dst: NodeID(d), VNet: next(2), SizeBytes: size}})
					}
				}
			}
		}
		eng.Register(&source{net: net, sched: sched})
		return eng, net, got
	}

	engQ, netQ, gotQ := build(true)
	engR, netR, gotR := build(false)
	const cycles = 6 * 700
	engQ.Run(cycles)
	engR.Run(cycles)

	if len(*gotQ) == 0 {
		t.Fatal("no deliveries — schedule broken")
	}
	if len(*gotQ) != len(*gotR) {
		t.Fatalf("quiescent delivered %d packets, reference %d", len(*gotQ), len(*gotR))
	}
	for i := range *gotQ {
		if (*gotQ)[i] != (*gotR)[i] {
			t.Fatalf("delivery %d differs: quiescent %+v, reference %+v", i, (*gotQ)[i], (*gotR)[i])
		}
	}
	for i := range netQ.Routers() {
		rq, rr := netQ.Routers()[i], netR.Routers()[i]
		if rq.XbarMoves() != rr.XbarMoves() {
			t.Errorf("%s: xbar moves %d vs %d", rq.Name(), rq.XbarMoves(), rr.XbarMoves())
		}
		uq, ur := rq.XbarUtil(), rr.XbarUtil()
		if uq.Busy() != ur.Busy() || uq.Total() != ur.Total() {
			t.Errorf("%s: xbar util %d/%d vs %d/%d",
				rq.Name(), uq.Busy(), uq.Total(), ur.Busy(), ur.Total())
		}
		for d := Direction(0); d < numDirections; d++ {
			lq, lr := rq.LinkUtil(d), rr.LinkUtil(d)
			if (lq == nil) != (lr == nil) {
				t.Fatalf("%s out %s: link util presence differs", rq.Name(), d)
			}
			if lq != nil && (lq.Busy() != lr.Busy() || lq.Total() != lr.Total()) {
				t.Errorf("%s out %s: link util %d/%d vs %d/%d",
					rq.Name(), d, lq.Busy(), lq.Total(), lr.Busy(), lr.Total())
			}
		}
		sq, sr := xbarSamples(rq), xbarSamples(rr)
		if len(sq) != len(sr) {
			t.Fatalf("%s: %d series samples vs %d", rq.Name(), len(sq), len(sr))
		}
		for j := range sq {
			if sq[j] != sr[j] {
				t.Errorf("%s: series sample %d = %v vs %v", rq.Name(), j, sq[j], sr[j])
			}
		}
		cq, cr := rq.BufferHistogram().CDF(), rr.BufferHistogram().CDF()
		if len(cq) != len(cr) {
			t.Fatalf("%s: CDF lengths differ", rq.Name())
		}
		for j := range cq {
			if cq[j] != cr[j] {
				t.Errorf("%s: CDF point %d = %+v vs %+v", rq.Name(), j, cq[j], cr[j])
			}
		}
	}
}

// checkPendingMasks holds every router's and NI's pending masks to the
// wires they summarize: a bit is set exactly when its wire holds entries.
func checkPendingMasks(t *testing.T, net *Network, cycle int64) {
	t.Helper()
	for i := range net.routers {
		r := &net.routers[i]
		for j := range r.inList {
			if set, held := r.rd.pending&(1<<uint(j)) != 0, len(r.inList[j].in.q) > 0; set != held {
				t.Fatalf("cycle %d: %s input %s: pending bit %v, wire holds %d flits",
					cycle, r.Name(), r.inList[j].dir, set, len(r.inList[j].in.q))
			}
		}
		if wires := uint32(1)<<uint(len(r.inList)) - 1; r.rd.pending&^wires != 0 {
			t.Fatalf("cycle %d: %s: pending mask %b has bits that belong to no wire", cycle, r.Name(), r.rd.pending)
		}
		ni := &net.nis[i]
		want := uint32(0)
		if len(ni.fromRouter.q) > 0 {
			want = 1
		}
		if ni.rd.pending != want {
			t.Fatalf("cycle %d: %s: pending mask %b, wires say %b", cycle, ni.Name(), ni.rd.pending, want)
		}
	}
}

// checkCredits holds every link to credit conservation, between cycles:
// for each VC of each input port, the slots its sender may still use (for
// an inject port, those landed since its last Update too), the flits of
// that VC on the wire and the flits buffered in it add up to the VC's
// depth — no slot is lost or returned twice. The sender's counters are
// found from the topology, not through the port's credit sink. It returns
// a hash of every counter.
func checkCredits(t *testing.T, net *Network, cycle int64) (hash uint64) {
	t.Helper()
	for i := range net.routers {
		r := &net.routers[i]
		for j := range r.inList {
			in := &r.inList[j]
			var free func(v int, c int32) int32
			switch in.dir {
			case Local:
				free = func(v int, c int32) int32 { return net.nis[i].credits[r.vnetOff[v]+c] }
			case Compute:
				free = func(_ int, c int32) int32 { return net.ports[i].credits[c] + net.ports[i].landed[c] }
			default:
				up, _ := net.cfg.neighbor(r.id, in.dir)
				out := net.routers[up].outputs[in.dir.opposite()]
				free = func(v int, c int32) int32 { return out.credits[r.vnetOff[v]+c] }
			}
			for v, base := range in.refBase {
				for c := int32(0); base >= 0 && c < r.nvcOf[v]; c++ {
					onWire := int32(0)
					for _, e := range in.in.q {
						if int(e.f.VNet) == v && int32(e.f.VC) == c {
							onWire++
						}
					}
					if sum := free(v, c) + onWire + r.vcs[base+c].count; sum != r.depthOf[v] {
						t.Fatalf("cycle %d: %s input %s vnet %d vc %d: %d free at the sender + %d on the wire + %d buffered, want %d",
							cycle, r.Name(), in.dir, v, c, free(v, c), onWire, r.vcs[base+c].count, r.depthOf[v])
					}
				}
			}
		}
	}
	for _, c := range net.credits {
		hash = hash*1099511628211 + uint64(uint32(c))
	}
	return hash
}

// TestPendingMasksTrackWires steps a mesh carrying request/response
// traffic and snack tokens from the compute ports one cycle at a time
// and checks, after every cycle, that the pending masks the routers and
// NIs poll instead of their wires agree with the wires and that every
// link conserves its credits; and both again after a checkpoint restore,
// whose replay must reach the first run's credit counters cycle for
// cycle. Its one leg keeps the name it had when the mesh could also be
// cut into shards.
func TestPendingMasksTrackWires(t *testing.T) {
	t.Run("shards=1", pendingMasksTrackWires)
}

func pendingMasksTrackWires(t *testing.T) {
	cfg := SnackPlatform(4, 4, true)
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var delivered, consumed int
	for i := 0; i < cfg.Nodes(); i++ {
		net.AttachClient(NodeID(i), countClient{&delivered})
		port := net.AttachCompute(NodeID(i), consumeAll{&consumed})
		// Each compute port sends a token to the node across the mesh
		// every few cycles; tokens are consumed on arrival.
		eng.Register(&portPump{port: port, dst: NodeID(cfg.Nodes() - 1 - i), every: int64(3 + i%4)})
	}
	rng := uint64(99)
	eng.Register(injectEach(func(cycle int64) {
		if cycle >= 600 {
			return // let the mesh drain: the masks must return to zero
		}
		for n := 0; n < cfg.Nodes(); n++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if rng>>11%100 < 25 {
				dst := NodeID(rng >> 33 % uint64(cfg.Nodes()))
				if dst == NodeID(n) {
					continue
				}
				size := CtrlBytes
				if rng>>20&1 == 0 {
					size = DataBytes
				}
				net.InjectMsg(NodeID(n), dst, int(rng>>21&1), size, nil, cycle)
			}
		}
	}))
	var snap *NetworkState
	var snapEng *sim.EngineState
	var snapRNG uint64
	// step runs one cycle, checks both invariants and returns the credit
	// counters' hash.
	step := func(cycle int64) uint64 {
		eng.Step()
		checkPendingMasks(t, net, cycle)
		return checkCredits(t, net, cycle)
	}
	hashes := make([]uint64, 0, 1200) // after each cycle of the first run
	busy := 0
	for cycle := int64(0); cycle < 1200; cycle++ {
		hashes = append(hashes, step(cycle))
		for i := range net.routers {
			if net.routers[i].rd.pending != 0 {
				busy++
			}
		}
		if cycle == 300 {
			eng.Settle()
			snap, snapEng, snapRNG = net.SnapshotState(nil), eng.SnapshotState(), rng
		}
	}
	if delivered == 0 || consumed == 0 || busy == 0 {
		t.Fatalf("delivered %d packets, consumed %d tokens, %d router-cycles with pending wires: the run exercised nothing",
			delivered, consumed, busy)
	}
	// Restoring rewinds wires, masks and counters together; the injector's
	// draws rewind with them.
	net.RestoreState(snap, nil)
	eng.RestoreState(snapEng)
	rng = snapRNG
	checkPendingMasks(t, net, 300)
	if checkCredits(t, net, 300) != hashes[300] {
		t.Fatal("the restored credit counters are not those of the snapshot cycle")
	}
	for cycle := int64(301); cycle < 400; cycle++ {
		if step(cycle) != hashes[cycle] {
			t.Fatalf("cycle %d: the credit counters after the restore differ from the first run's", cycle)
		}
	}
}

// portPump sends one snack token through a compute inject port every
// few cycles, credits permitting.
type portPump struct {
	port  *InjectPort
	dst   NodeID
	every int64
}

func (p *portPump) Evaluate(cycle int64) { p.port.Update(cycle) }
func (p *portPump) Advance(cycle int64) {
	if cycle < 600 && cycle%p.every == 0 {
		p.port.Send(p.dst, nil, cycle)
	}
}
