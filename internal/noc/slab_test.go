package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// slabConfigs are the mesh variants the slab tests cover: two sizes,
// with and without compute ports.
func slabConfigs() []*Config {
	var out []*Config
	for _, size := range [][2]int{{4, 4}, {8, 8}} {
		for _, compute := range []bool{false, true} {
			cfg := DAPPER(size[0], size[1])
			if compute {
				cfg = SnackPlatform(size[0], size[1], true)
			}
			out = append(out, cfg)
		}
	}
	return out
}

func cfgLabel(cfg *Config) string {
	return fmt.Sprintf("%dx%d/snackvnet=%d", cfg.Width, cfg.Height, cfg.SnackVNet)
}

// TestNetworkBuildAllocations pins the tentpole: New allocates its slabs
// once each, so the object count is a small constant whatever the mesh
// size (the per-router layout made 1 211 objects for a 4x4).
func TestNetworkBuildAllocations(t *testing.T) {
	const budget = 48
	counts := make(map[string]float64) // by variant, sans mesh size
	for _, cfg := range slabConfigs() {
		cfg := cfg
		// Twenty runs: AllocsPerRun truncates the mean, which hides the odd
		// allocation the runtime makes when a collection starts mid-run.
		got := testing.AllocsPerRun(20, func() {
			if _, err := New(sim.NewEngine(), cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f objects", cfgLabel(cfg), got)
		if got > budget {
			t.Errorf("%s: New allocated %.0f objects, budget %d", cfgLabel(cfg), got, budget)
		}
		variant := fmt.Sprintf("snackvnet=%d", cfg.SnackVNet)
		if prev, seen := counts[variant]; seen && prev != got {
			t.Errorf("%s: %.0f objects, but %.0f on the other mesh size", cfgLabel(cfg), got, prev)
		}
		counts[variant] = got
	}
}

// loaded builds cfg's network under uniform-random multi-flit traffic
// and stops it mid-flight.
func loaded(t *testing.T, cfg *Config) *Network {
	t.Helper()
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Register(NewSyntheticInjector(net, UniformRandom(), 0.05, DataBytes, VNetReq, 7))
	eng.Run(600)
	return net
}

// held counts the flits a snapshot of n must clone, and the packets
// queued or mid-injection at the NIs, which ride the state by value.
func held(n *Network) (flits, packets int) {
	for _, slab := range [][]*Flit{n.bufSlab, n.reasm} {
		for _, f := range slab {
			if f != nil {
				flits++
			}
		}
	}
	for k := range n.flitWires {
		flits += len(n.flitWires[k].q)
	}
	for i := range n.nis {
		packets += n.nis[i].totalQueued()
	}
	return flits, packets
}

// TestSnapshotAllocations: a checkpoint is a fixed number of slab copies
// plus one clone per flit in flight — none per queued packet or unsent
// flit — on any mesh size, and a repeat restore allocates nothing: what
// it overwrites goes back to the pool it draws from.
func TestSnapshotAllocations(t *testing.T) {
	const slabCopies = 16
	for _, cfg := range slabConfigs() {
		net := loaded(t, cfg)
		inFlight, queued := held(net)
		if inFlight == 0 || queued == 0 {
			t.Fatalf("%s: %d flits in flight and %d packets queued at the snapshot point", cfgLabel(cfg), inFlight, queued)
		}
		var st *NetworkState
		take := testing.AllocsPerRun(10, func() { st = net.SnapshotState(nil) })
		net.RestoreState(st, nil) // the first restore may refill the pool
		restore := testing.AllocsPerRun(10, func() { net.RestoreState(st, nil) })
		t.Logf("%s: %d flits in flight, %d packets queued, take %.0f objects, restore %.0f",
			cfgLabel(cfg), inFlight, queued, take, restore)
		if take > float64(inFlight+slabCopies) {
			t.Errorf("%s: SnapshotState allocated %.0f objects, want <= %d clones + %d slabs",
				cfgLabel(cfg), take, inFlight, slabCopies)
		}
		if restore != 0 {
			t.Errorf("%s: a repeat RestoreState allocated %.0f objects, want 0", cfgLabel(cfg), restore)
		}
	}
}

// TestSlabWindowsAreExact: every fixed window a router or NI holds has
// capacity == length, and every work list's capacity ends where the next
// window begins — so no append can run into a neighbour.
func TestSlabWindowsAreExact(t *testing.T) {
	for _, cfg := range slabConfigs() {
		net, err := New(sim.NewEngine(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		exact := func(what string, node int, length, capacity int) {
			t.Helper()
			if length != capacity {
				t.Errorf("%s: node %d %s has len %d cap %d", cfgLabel(cfg), node, what, length, capacity)
			}
		}
		for i := range net.routers {
			r := &net.routers[i]
			exact("vcs", i, len(r.vcs), cap(r.vcs))
			exact("bufSlab", i, len(r.bufSlab), cap(r.bufSlab))
			exact("inList", i, len(r.inList), cap(r.inList))
			exact("outList", i, len(r.outList), cap(r.outList))
			exact("bufBucket", i, len(r.bufBucket), cap(r.bufBucket))
			for j := range r.inList {
				exact("refBase", i, len(r.inList[j].refBase), cap(r.inList[j].refBase))
				exact("flit queue window", i, cap(r.inList[j].in.q), cap(net.flitWires[0].q))
			}
			for j := range r.outList {
				o := &r.outList[j]
				exact("out credits", i, len(o.credits), cap(o.credits))
				exact("out vcRR", i, len(o.vcRR), cap(o.vcRR))
			}
			// The VC rings tile the router's buffer window exactly.
			end := int32(0)
			for _, vc := range r.vcs {
				if vc.base != end {
					t.Fatalf("%s: node %d VC ring starts at %d, previous ended at %d", cfgLabel(cfg), i, vc.base, end)
				}
				end += vc.depth
			}
			exact("VC rings", i, int(end), len(r.bufSlab))
			ni := &net.nis[i]
			exact("ni credits", i, len(ni.credits), cap(ni.credits))
			exact("ni vcRR", i, len(ni.vcRR), cap(ni.vcRR))
			exact("ni reasm", i, len(ni.reasm), cap(ni.reasm))
			exact("ni waiting", i, len(ni.waiting), cap(ni.waiting))
			exact("ni latSum", i, len(ni.latSum), cap(ni.latSum))
			// The queue seeds are empty windows of exactly their carve.
			exact("ni incoming seed", i, len(ni.incoming), 0)
			exact("ni incoming seed", i, cap(ni.incoming), seedIncoming)
			exact("ni active seed", i, len(ni.active), 0)
			exact("ni active seed", i, cap(ni.active), len(cfg.VNets))
		}
		for i := range net.ports {
			exact("port credits", i, len(net.ports[i].credits), cap(net.ports[i].credits))
			exact("port landed", i, len(net.ports[i].landed), cap(net.ports[i].landed))
		}
	}
}

// TestSlabWindowsDoNotAlias fuzzes router and NI i — ring pushes and pops
// on every VC, and work lists and injection queues appended far past
// their carved capacity — and checks router and NI i+1's windows of the
// same slabs never change.
func TestSlabWindowsDoNotAlias(t *testing.T) {
	net, err := New(sim.NewEngine(), SnackPlatform(4, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i+1 < len(net.routers); i++ {
		r, next := &net.routers[i], &net.routers[i+1]
		ni, nextNI := &net.nis[i], &net.nis[i+1]
		// Everything of next's that shares a slab with r, viewed at full
		// capacity so writes past a length would show too.
		view := func() []any {
			v := []any{
				append([]*Flit(nil), next.bufSlab...),
				append([]inputVC(nil), next.vcs...),
				append([]credit(nil), next.stagedCredits[:cap(next.stagedCredits)]...),
			}
			for _, l := range next.workLists() {
				v = append(v, append([]int32(nil), (*l)[:cap(*l)]...))
			}
			v = append(v, append([]injectReq(nil), nextNI.incoming[:cap(nextNI.incoming)]...),
				append([]txn(nil), nextNI.active[:cap(nextNI.active)]...))
			v = append(v, append([]chain(nil), nextNI.waiting...))
			return v
		}
		before := view()
		for step := 0; step < 2000; step++ {
			vc := &r.vcs[rng.Intn(len(r.vcs))]
			if vc.count < vc.depth && rng.Intn(3) > 0 {
				r.pushBack(vc, &Flit{})
			} else if vc.count > 0 {
				r.popFront(vc)
			}
		}
		for _, l := range r.workLists() {
			for k, past := 0, cap(*l)+8; k < past; k++ {
				*l = append(*l, int32(k))
			}
		}
		for k, past := 0, cap(r.stagedCredits)+8; k < past; k++ {
			r.stagedCredits = append(r.stagedCredits, credit{port: Local})
		}
		for k, past := 0, cap(ni.incoming)+8; k < past; k++ {
			ni.incoming = append(ni.incoming, injectReq{pkt: &envelope{}, stamp: 1})
		}
		for k, past := 0, cap(ni.active)+8; k < past; k++ {
			ni.active = append(ni.active, txn{pkt: &envelope{}, n: 1})
		}
		for v := range ni.waiting {
			for range 8 {
				ni.waiting[v].push(&envelope{})
			}
		}
		if !reflect.DeepEqual(before, view()) {
			t.Fatalf("pushes on router and NI %d changed router or NI %d's slab windows", i, i+1)
		}
	}
}

// networkShape is what New sized from a Config: the slab plan, the length
// of every slab, and the contents of the read-only geometry tables and of
// the initial credits, and how many components New registered on the
// engine.
type networkShape struct {
	plan            slabPlan
	lens            []int
	tables, credits []int32
	components      float64
}

func shapeOf(t *testing.T, cfg *Config) networkShape {
	t.Helper()
	eng := sim.NewEngine()
	n, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	eng.RegisterMetrics(reg)
	return networkShape{
		plan: planSlabs(cfg),
		lens: []int{
			len(n.routers), len(n.nis), len(n.ports), len(n.rptrs), len(n.inPorts), len(n.outPorts),
			len(n.flitWires), len(n.flitQ), len(n.vcs), len(n.bufSlab), len(n.reasm), len(n.waiting),
			len(n.staged), len(n.reqSeed), len(n.txnSeed), len(n.tables),
			len(n.credits), len(n.counts), len(n.work),
		},
		tables:     slices.Clone(n.tables),
		credits:    slices.Clone(n.credits),
		components: reg.Snapshot("").Values["engine.components"],
	}
}

// TestShardsFieldIsInert pins that Config.Shards changes nothing: the
// repository benchmark still sets it to 2 and times the result against
// an unset config, so on every slab variant a Shards = 2 config must
// build exactly the Shards = 0 network, with the same components on the
// one engine.
func TestShardsFieldIsInert(t *testing.T) {
	for _, cfg := range slabConfigs() {
		sharded := *cfg
		sharded.Shards = 2
		ref, got := shapeOf(t, cfg), shapeOf(t, &sharded)
		if ref.components != float64(2*cfg.Nodes()) {
			t.Errorf("%s: %v components on the engine, want a router and an NI per node (%d)",
				cfgLabel(cfg), ref.components, 2*cfg.Nodes())
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: with Shards = 2 the network's shape is %+v, without %+v", cfgLabel(cfg), got, ref)
		}
	}
}

// TestNetworkShapeIgnoresChannelWidth guards the premise LoadLatencyPoints
// shares one network across channel widths on: New sizes nothing from the
// width (only NI injection reads it, through FlitsFor, while running). For
// every width from 8 to 64 bytes the network's shape equals the one at 16.
func TestNetworkShapeIgnoresChannelWidth(t *testing.T) {
	for _, base := range []*Config{
		SnackPlatformCustom(4, 4, true, 2, 8, 16),
		SnackPlatformCustom(8, 4, false, 16, 1, 16),
		DAPPER(4, 4),
	} {
		ref := shapeOf(t, base)
		for w := 8; w <= 64; w++ {
			cfg := *base
			cfg.ChannelWidthBytes = w
			if got := shapeOf(t, &cfg); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s at %d-byte channels: shape %+v, at %d bytes %+v",
					cfgLabel(base), w, got, base.ChannelWidthBytes, ref)
			}
		}
	}
}
