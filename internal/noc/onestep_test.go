package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"snacknoc/internal/sim"
	"snacknoc/internal/trace"
)

// fakeCPM is a compute attachment that never consumes on arrival and
// drains buffered loop tokens when drain is set, counting the offers.
type fakeCPM struct {
	drain  bool
	offers int
}

func (c *fakeCPM) OnArrival(*Flit, int64) bool { return false }
func (c *fakeCPM) DrainLoopFlit(*Flit, int64) bool {
	c.offers++
	return c.drain
}

// evaluateStaged is Evaluate after ingest with the one-step path left out:
// route computation, VC allocation, switch allocation and traversal, then
// the cycle's observation.
func (r *Router) evaluateStaged(cycle int64) {
	moves := 0
	if r.occupancy > 0 {
		if len(r.needRoute) > 0 {
			r.routeCompute(cycle)
		}
		if len(r.waitVA) > 0 {
			r.allocateVCs(cycle)
		}
		moves = r.allocateSwitch(cycle)
	}
	r.observe(cycle, moves)
}

// plantLoneFlit gives r the state ingest leaves for one buffered flit on
// a random input VC that was idle, with random flit kind, destination,
// loop bit and pipeline eligibility, and randomizes every allocator input
// the one-step path reads: output credits, busy masks, round-robin
// pointers and arbitration counters. Sometimes it also leaves an empty
// VC holding an output VC (a head-only packet awaiting its body), which
// the one-step path must decline.
func plantLoneFlit(rng *rand.Rand, r *Router, cycle int64) {
	idx := int32(rng.Intn(len(r.vcs)))
	ivc := &r.vcs[idx]
	f := r.pool.flits.Get()
	*f = Flit{
		PacketID: rng.Uint64(), Type: HeadTailFlit, VNet: ivc.vnet, VC: ivc.vc,
		Src: NodeID(rng.Intn(r.cfg.Nodes())), Dst: NodeID(rng.Intn(r.cfg.Nodes())),
		PktFlits: 1, InjectCycle: cycle - int64(rng.Intn(50)),
		eligibleAt: cycle + int64(rng.Intn(3)) - 1,
	}
	// Loop tokens are single-flit packets.
	if ivc.vnet == r.snackVNet && rng.Intn(2) == 0 {
		f.Loop = true
	} else if rng.Intn(4) == 0 {
		f.Type, f.PktFlits = HeadFlit, 3
	}
	if rng.Intn(3) == 0 {
		f.eligibleAt = cycle + r.routerLatM1 // as ingest dates it
	}
	r.pushBack(ivc, f)
	ivc.arrived++
	r.occupancy++
	ivc.state = vcRoute
	r.needRoute = append(r.needRoute, idx)
	// The sender spent the slot the flit occupies.
	s := &r.inputs[ivc.port].credit
	if slot := s.base + s.vnetOff[f.VNet] + int32(f.VC); s.to[slot] >= s.depthOf[f.VNet] {
		s.to[slot]--
	}

	for i := range r.outList {
		out := &r.outList[i]
		for c := range out.credits {
			out.credits[c] = int32(rng.Intn(4))
		}
		for v := range out.vcRR {
			out.vcRR[v] = int32(rng.Intn(int(r.nvcOf[v]) + 1))
		}
		if rng.Intn(2) == 0 {
			out.busy = rng.Uint64() & rng.Uint64()
		}
	}
	for d := range r.saPtr {
		r.saPtr[d] = rng.Intn(100)
	}
	r.saRound, r.vaPtr = rng.Intn(100), rng.Intn(100)

	if rng.Intn(6) == 0 {
		// An empty VC of another port holding an output VC.
		j := int32(rng.Intn(len(r.vcs)))
		h := &r.vcs[j]
		if h.port == ivc.port {
			return
		}
		out := &r.outList[rng.Intn(len(r.outList))]
		c := int32(rng.Intn(int(r.nvcOf[h.vnet])))
		h.state, h.outPort, h.outVC = vcActive, out.dir, int8(c)
		out.busy |= 1 << uint(r.vnetOff[h.vnet]+c)
		r.addSACand(out.dir, int(h.class), j)
	}
}

// TestOneStepMatchesStagedPath drives random lone-flit router states
// through Evaluate's one-step path and a restored copy of the same state
// through routeCompute, allocateVCs, allocateSwitch and observe called
// directly, and requires the same network state (every slab, router and
// port scalar block, work list, wire queue and series), the same trace
// records and the same drain offers. It covers the four presets, priority
// arbitration on and off, tracing on and off, sampled series, head-only
// and head-and-tail packets, and the CPM's router with loop tokens.
func TestOneStepMatchesStagedPath(t *testing.T) {
	presets := []func(w, h int) *Config{
		DAPPER, AxNoC, BiNoCHS,
		func(w, h int) *Config { return SnackPlatform(w, h, false) },
	}
	const trials = 400
	for _, preset := range presets {
		for _, prio := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				cfg := preset(4, 4)
				cfg.PriorityArb = prio
				name := fmt.Sprintf("%s/prio=%v/traced=%v", cfg.Name, prio, traced)
				t.Run(name, func(t *testing.T) {
					checkOneStep(t, cfg, traced, trials)
				})
			}
		}
	}
}

func checkOneStep(t *testing.T, cfg *Config, traced bool, trials int) {
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		net.EnableSampling(7)
	}
	cpm := &fakeCPM{}
	const cpmNode = 5
	if cfg.SnackVNet >= 0 {
		net.Router(cpmNode).attachCompute(cpm)
	}
	clean := net.SnapshotState(nil)
	rng := rand.New(rand.NewSource(int64(len(cfg.Name))*31 + int64(cfg.RouterLatency)))
	var took, declined, offers int
	for trial := range trials {
		net.RestoreState(clean, nil)
		id := NodeID(rng.Intn(cfg.Nodes()))
		if cfg.SnackVNet >= 0 && rng.Intn(3) == 0 {
			id = cpmNode
		}
		r := net.Router(id)
		cycle := int64(100 + rng.Intn(100))
		plantLoneFlit(rng, r, cycle)
		cpm.drain = rng.Intn(2) == 0
		before := net.SnapshotState(nil)

		run := func(oneStep bool) (*NetworkState, []trace.Record, int) {
			var tr *trace.Tracer
			if traced {
				tr = trace.New("t", 0)
			}
			r.tr = tr
			cpm.offers = 0
			switch {
			case oneStep && r.occupancy == 1 && r.oneStep(cycle):
				r.observe(cycle, 1)
				took++
			case oneStep:
				r.evaluateStaged(cycle)
				declined++
			default:
				r.evaluateStaged(cycle)
			}
			r.Advance(cycle)
			r.tr = nil
			return net.SnapshotState(nil), tr.Records(), cpm.offers
		}
		fastState, fastRecs, fastOffers := run(true)
		net.RestoreState(before, nil)
		stagedState, stagedRecs, stagedOffers := run(false)
		offers += stagedOffers

		if !reflect.DeepEqual(fastState, stagedState) {
			t.Fatalf("trial %d (router %d): network state after the one-step path differs from the staged path's\none-step: %+v\nstaged:   %+v",
				trial, id, fastState.routers[id], stagedState.routers[id])
		}
		if !reflect.DeepEqual(fastRecs, stagedRecs) {
			t.Fatalf("trial %d (router %d): trace records differ\none-step: %+v\nstaged:   %+v", trial, id, fastRecs, stagedRecs)
		}
		if fastOffers != stagedOffers {
			t.Fatalf("trial %d (router %d): %d drain offers on the one-step path, %d staged", trial, id, fastOffers, stagedOffers)
		}
	}
	// Both branches must be exercised, or the comparison proves nothing.
	if took < trials/5 || declined < trials/5 {
		t.Fatalf("one-step path taken in %d and declined in %d of %d trials; want at least %d each", took, declined, trials, trials/5)
	}
	if cfg.SnackVNet >= 0 && offers == 0 {
		t.Fatal("no loop token was offered to the CPM's drainer")
	}
}
