package noc

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"snacknoc/internal/sim"
)

// sink records delivered packets (copied out: delivered packets are only
// borrowed for the duration of the Deliver call).
type sink struct {
	got []*Packet
	at  []int64
}

func (s *sink) Deliver(p *Packet, cycle int64) {
	cp := *p
	s.got = append(s.got, &cp)
	s.at = append(s.at, cycle)
}

// source injects a fixed schedule of packets from a node.
type source struct {
	net   *Network
	sched []srcEntry
}

type srcEntry struct {
	cycle int64
	pkt   *Packet
}

func (s *source) Name() string { return "source" }
func (s *source) Evaluate(cycle int64) {
	for _, e := range s.sched {
		if e.cycle == cycle {
			s.net.Inject(e.pkt, cycle)
		}
	}
}
func (s *source) Advance(int64) {}

func build(t *testing.T, cfg *Config) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng, net
}

func TestConfigValidate(t *testing.T) {
	bad := []*Config{
		{Width: 1, Height: 4, ChannelWidthBytes: 16, RouterLatency: 1, LinkLatency: 1, VNets: commVNets(2, 2), SnackVNet: -1},
		{Width: 4, Height: 4, ChannelWidthBytes: 0, RouterLatency: 1, LinkLatency: 1, VNets: commVNets(2, 2), SnackVNet: -1},
		{Width: 4, Height: 4, ChannelWidthBytes: 16, RouterLatency: 0, LinkLatency: 1, VNets: commVNets(2, 2), SnackVNet: -1},
		{Width: 4, Height: 4, ChannelWidthBytes: 16, RouterLatency: 1, LinkLatency: 1, VNets: nil, SnackVNet: -1},
		{Width: 4, Height: 4, ChannelWidthBytes: 16, RouterLatency: 1, LinkLatency: 1, VNets: commVNets(0, 2), SnackVNet: -1},
		{Width: 4, Height: 4, ChannelWidthBytes: 16, RouterLatency: 1, LinkLatency: 1, VNets: commVNets(2, 2), SnackVNet: 7},
		{Width: 3, Height: 3, ChannelWidthBytes: 16, RouterLatency: 1, LinkLatency: 1, VNets: commVNets(2, 2), SnackVNet: 0},
		{Width: 4, Height: 4, ChannelWidthBytes: 16, RouterLatency: 1, LinkLatency: 1, VNets: commVNets(2, 1_000_000_000), SnackVNet: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated but should not", i)
		}
	}
	for _, c := range []*Config{DAPPER(4, 4), AxNoC(4, 4), BiNoCHS(4, 4), SnackPlatform(4, 4, true)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

// TestConfigValidateBoundsNodeIDs: a NodeID is an int32, so a mesh with
// more nodes than that is an error, even where Width*Height overflows.
// Meshes inside that range but past the buffer budget fail on the budget
// instead (TestConfigValidateBoundsMemory), so ok names only whether the
// NodeID check lets the mesh through.
func TestConfigValidateBoundsNodeIDs(t *testing.T) {
	cases := []struct {
		w, h int
		ok   bool
	}{
		{4, 4, true},
		{2, math.MaxInt32 / 2, true},
		{32768, 65535, true},
		{2, 1 << 30, false},
		{65536, 32768, false},
		{46341, 46341, false},
		{1 << 40, 1 << 40, false},
	}
	for _, tc := range cases {
		c := DAPPER(4, 4)
		c.Width, c.Height = tc.w, tc.h
		err := c.Validate()
		if named := err != nil && strings.Contains(err.Error(), "NodeID"); named == tc.ok {
			t.Errorf("%dx%d: Validate = %v, want NodeID check ok=%v", tc.w, tc.h, err, tc.ok)
		}
	}
	if err := DAPPER(4, 4).Validate(); err != nil {
		t.Errorf("4x4: %v", err)
	}
}

// TestConfigValidateBoundsMemory: New allocates every buffer slot of a
// mesh up front, so a config that plans more than meshSlotBudget of them
// is an error before anything is allocated, while every configuration
// the experiments build stays inside it. Only Validate runs here: New on
// an oversized config without the budget would try to allocate it.
func TestConfigValidateBoundsMemory(t *testing.T) {
	over := []*Config{
		SnackPlatformCustom(4, 4, true, 2, 10_000_000, 16), // snackdse -grid 'buf=10000000:vc=2:rcu=16'
		SnackPlatformCustom(16, 16, true, 16, 1<<12, 64),
		DAPPER(4096, 4096),
	}
	for _, c := range over {
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "buffer slots") {
			t.Errorf("%s %dx%d (%d VCs of %d): Validate = %v, want the buffer budget error",
				c.Name, c.Width, c.Height, c.VNets[0].VCs, c.VNets[0].BufDepth, err)
		}
	}
	// The presets and the Fig 1 reductions on every Fig 13 and DSE mesh,
	// and the default DSE grid's router resources at every RCU count.
	for _, m := range [][2]int{{2, 2}, {4, 2}, {4, 4}, {8, 4}, {8, 8}, {16, 8}, {16, 16}} {
		w, h := m[0], m[1]
		ok := []*Config{DAPPER(w, h), AxNoC(w, h), BiNoCHS(w, h), SnackPlatform(w, h, true)}
		for _, c := range ok[:3] {
			ok = append(ok, Reduce(c, 2, 1, 1), Reduce(c, 1, 2, 1), Reduce(c, 1, 1, 2))
		}
		for _, vcs := range []int{2, 4, 8, 16} {
			for _, buf := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
				ok = append(ok, SnackPlatformCustom(w, h, true, vcs, buf, 64))
			}
		}
		for _, c := range ok {
			if err := c.Validate(); err != nil {
				t.Errorf("%s %dx%d (%d VCs of %d): %v", c.Name, w, h, c.VNets[0].VCs, c.VNets[0].BufDepth, err)
			}
		}
	}
}

func TestXYCoordinates(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	for n := NodeID(0); n < 16; n++ {
		x, y := cfg.XY(n)
		if cfg.Node(x, y) != n {
			t.Fatalf("XY/Node roundtrip failed for %d", n)
		}
	}
	if d := routeXY(cfg, cfg.Node(1, 1), cfg.Node(3, 1)); d != East {
		t.Fatalf("route (1,1)->(3,1) = %v, want East", d)
	}
	if d := routeXY(cfg, cfg.Node(1, 1), cfg.Node(0, 3)); d != West {
		t.Fatalf("route should correct X first, got %v", d)
	}
	if d := routeXY(cfg, cfg.Node(1, 1), cfg.Node(1, 3)); d != South {
		t.Fatalf("route (1,1)->(1,3) = %v, want South", d)
	}
	if d := routeXY(cfg, cfg.Node(1, 1), cfg.Node(1, 1)); d != Local {
		t.Fatalf("route to self = %v, want Local", d)
	}
}

func TestSingleFlitDelivery(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	eng, net := build(t, cfg)
	sk := &sink{}
	net.AttachClient(15, sk)
	src := &source{net: net, sched: []srcEntry{
		{cycle: 0, pkt: &Packet{Src: 0, Dst: 15, VNet: VNetReq, SizeBytes: CtrlBytes, Payload: "hello"}},
	}}
	eng.Register(src)
	eng.Run(100)
	if len(sk.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sk.got))
	}
	if sk.got[0].Payload != "hello" {
		t.Fatalf("payload = %v", sk.got[0].Payload)
	}
	if sk.got[0].Src != 0 || sk.got[0].Dst != 15 {
		t.Fatalf("src/dst = %d/%d", sk.got[0].Src, sk.got[0].Dst)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	eng, net := build(t, cfg)
	sinks := make([]*sink, 16)
	for i := range sinks {
		sinks[i] = &sink{}
		net.AttachClient(NodeID(i), sinks[i])
	}
	var sched []srcEntry
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			sched = append(sched, srcEntry{
				cycle: int64(s), // stagger injections
				pkt:   &Packet{Src: NodeID(s), Dst: NodeID(d), VNet: VNetReq, SizeBytes: CtrlBytes},
			})
		}
	}
	eng.Register(&source{net: net, sched: sched})
	eng.Run(2000)
	total := 0
	for d, sk := range sinks {
		for _, p := range sk.got {
			if p.Dst != NodeID(d) {
				t.Fatalf("node %d received packet for %d", d, p.Dst)
			}
		}
		total += len(sk.got)
	}
	if total != 16*15 {
		t.Fatalf("delivered %d packets, want %d", total, 16*15)
	}
	if net.TotalEjected() != int64(16*15) {
		t.Fatalf("TotalEjected = %d", net.TotalEjected())
	}
}

func TestMultiFlitWormholeDelivery(t *testing.T) {
	cfg := DAPPER(4, 4) // 16B channels: a 72B packet is 5 flits
	if n := cfg.FlitsFor(DataBytes); n != 5 {
		t.Fatalf("FlitsFor(72) = %d on 16B channel, want 5", n)
	}
	eng, net := build(t, cfg)
	sk := &sink{}
	net.AttachClient(12, sk)
	eng.Register(&source{net: net, sched: []srcEntry{
		{cycle: 0, pkt: &Packet{Src: 3, Dst: 12, VNet: VNetResp, SizeBytes: DataBytes, Payload: 99}},
	}})
	eng.Run(200)
	if len(sk.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(sk.got))
	}
	if sk.got[0].Payload != 99 {
		t.Fatalf("payload lost in reassembly: %v", sk.got[0].Payload)
	}
}

// TestZeroLoadLatencyScalesWithPipeline checks the paper's §III-D2 hop
// latencies: a 2-stage router gives 2 cycles per hop, 4-stage gives 4.
func TestZeroLoadLatencyScalesWithPipeline(t *testing.T) {
	lat := func(cfg *Config) int64 {
		eng, net := build(t, cfg)
		sk := &sink{}
		net.AttachClient(3, sk) // 3 hops East from node 0 on the top row
		eng.Register(&source{net: net, sched: []srcEntry{
			{cycle: 0, pkt: &Packet{Src: 0, Dst: 3, VNet: VNetReq, SizeBytes: 8}},
		}})
		eng.Run(200)
		if len(sk.got) != 1 {
			t.Fatalf("%s: delivered %d", cfg.Name, len(sk.got))
		}
		return sk.at[0] - sk.got[0].InjectCycle
	}
	l2 := lat(BiNoCHS(4, 4))
	l4 := lat(DAPPER(4, 4))
	// Identical paths, so the 4-stage pipeline should cost exactly
	// 2 extra cycles at each of the 4 routers traversed.
	if l4-l2 != 8 {
		t.Fatalf("latency delta = %d (2-stage %d, 4-stage %d), want 8", l4-l2, l2, l4)
	}
}

func TestHeavyRandomTrafficAllDelivered(t *testing.T) {
	// Saturating random traffic must neither drop nor duplicate packets,
	// and buffer credits must never overflow (router panics otherwise).
	cfg := AxNoC(4, 4)
	eng, net := build(t, cfg)
	sinks := make([]*sink, 16)
	for i := range sinks {
		sinks[i] = &sink{}
		net.AttachClient(NodeID(i), sinks[i])
	}
	var sched []srcEntry
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	want := 0
	for c := int64(0); c < 300; c++ {
		for s := 0; s < 16; s++ {
			if next(10) < 4 { // 40% injection probability per node-cycle
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
	eng.Run(20000)
	got := 0
	for _, sk := range sinks {
		got += len(sk.got)
	}
	if got != want {
		t.Fatalf("delivered %d packets, want %d", got, want)
	}
}

func TestLoopRouteVisitsAllNodesOnce(t *testing.T) {
	for _, dims := range [][2]int{{4, 4}, {4, 3}, {3, 4}, {8, 8}, {2, 2}, {6, 4}} {
		cfg := &Config{Width: dims[0], Height: dims[1], ChannelWidthBytes: 16,
			RouterLatency: 1, LinkLatency: 1, VNets: commVNets(2, 2), SnackVNet: -1}
		lr := newLoopRoute(cfg)
		seen := make(map[NodeID]bool)
		n := NodeID(0)
		for i := 0; i < lr.Len(); i++ {
			if seen[n] {
				t.Fatalf("%v: node %d visited twice", dims, n)
			}
			seen[n] = true
			nxt := lr.Next(n)
			// successor must be a mesh neighbor
			x1, y1 := cfg.XY(n)
			x2, y2 := cfg.XY(nxt)
			if dx, dy := x2-x1, y2-y1; dx*dx+dy*dy != 1 {
				t.Fatalf("%v: %d -> %d not neighbors", dims, n, nxt)
			}
			n = nxt
		}
		if n != 0 {
			t.Fatalf("%v: loop did not close (ended at %d)", dims, n)
		}
		if len(seen) != cfg.Nodes() {
			t.Fatalf("%v: visited %d of %d nodes", dims, len(seen), cfg.Nodes())
		}
	}
}

func TestLoopRoutePositions(t *testing.T) {
	cfg := SnackPlatform(4, 4, false)
	lr := newLoopRoute(cfg)
	n := NodeID(0)
	start := lr.Pos(n)
	for i := 0; i < lr.Len(); i++ {
		if got := lr.Pos(n); got != (start+i)%lr.Len() {
			t.Fatalf("pos of %d = %d, want %d", n, got, (start+i)%lr.Len())
		}
		n = lr.Next(n)
	}
}

func TestCrossbarStatsAccumulate(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	eng, net := build(t, cfg)
	net.EnableSampling(10)
	sk := &sink{}
	net.AttachClient(3, sk)
	eng.Register(&source{net: net, sched: []srcEntry{
		{cycle: 0, pkt: &Packet{Src: 0, Dst: 3, VNet: VNetReq, SizeBytes: 8}},
	}})
	eng.Run(100)
	r0 := net.Router(0)
	if r0.XbarMoves() == 0 {
		t.Fatal("router 0 crossbar never moved a flit")
	}
	if r0.XbarUtil().Fraction() <= 0 {
		t.Fatal("router 0 crossbar utilization is zero")
	}
	if len(r0.XbarSeries().Samples()) != 10 {
		t.Fatalf("expected 10 samples, got %d", len(r0.XbarSeries().Samples()))
	}
	// Router 5 is off the XY path from 0 to 3; it must be idle.
	if net.Router(5).XbarMoves() != 0 {
		t.Fatal("off-path router moved flits")
	}
	if u := r0.LinkUtil(East); u == nil || u.Busy() == 0 {
		t.Fatal("east link of router 0 never busy")
	}
}

func TestPacketLatencyStats(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	eng, net := build(t, cfg)
	sk := &sink{}
	net.AttachClient(1, sk)
	eng.Register(&source{net: net, sched: []srcEntry{
		{cycle: 0, pkt: &Packet{Src: 0, Dst: 1, VNet: VNetReq, SizeBytes: 8}},
	}})
	eng.Run(100)
	if l := net.AvgPacketLatency(VNetReq); l <= 0 {
		t.Fatalf("avg latency = %v, want > 0", l)
	}
	if l := net.AvgPacketLatency(VNetResp); l != 0 {
		t.Fatalf("resp vnet latency = %v, want 0 (no traffic)", l)
	}
}

func TestReducePresets(t *testing.T) {
	base := AxNoC(4, 4)
	half := Reduce(base, 2, 1, 1)
	if half.VNets[0].BufDepth != 2 || half.VNets[0].VCs != 4 {
		t.Fatalf("buffer/2: depth=%d vcs=%d", half.VNets[0].BufDepth, half.VNets[0].VCs)
	}
	if base.VNets[0].BufDepth != 4 {
		t.Fatal("Reduce mutated the base config")
	}
	q := Reduce(base, 1, 4, 1)
	if q.VNets[0].VCs != 1 {
		t.Fatalf("VC/4 = %d, want 1", q.VNets[0].VCs)
	}
	w := Reduce(base, 1, 1, 4)
	if w.ChannelWidthBytes != 4 {
		t.Fatalf("width/4 = %d, want 4", w.ChannelWidthBytes)
	}
	if err := half.Validate(); err != nil {
		t.Fatalf("reduced config invalid: %v", err)
	}
}

func TestFlitsFor(t *testing.T) {
	cfg := DAPPER(4, 4) // 16B
	cases := map[int]int{0: 1, 1: 1, 16: 1, 17: 2, 72: 5}
	for bytes, want := range cases {
		if got := cfg.FlitsFor(bytes); got != want {
			t.Errorf("FlitsFor(%d) = %d, want %d", bytes, got, want)
		}
	}
}

// TestFlitize: minting a packet's flits one by one yields the head / body
// / tail sequence, payload on the head only.
func TestFlitize(t *testing.T) {
	cfg := DAPPER(4, 4)
	pool := &flitPool{}
	p := &Packet{ID: 7, Src: 1, Dst: 2, VNet: VNetResp, SizeBytes: 72, Payload: "data", Loop: true, InjectCycle: 11}
	n := int32(cfg.FlitsFor(p.SizeBytes))
	if n != 5 {
		t.Fatalf("got %d flits, want 5", n)
	}
	for i := int32(0); i < n; i++ {
		f := mintFlit(p, i, n, 3, pool)
		want := BodyFlit
		switch i {
		case 0:
			want = HeadFlit
		case n - 1:
			want = TailFlit
		}
		if f.Type != want {
			t.Fatalf("flit %d has type %v, want %v", i, f.Type, want)
		}
		if f.SeqInPkt != i || f.PktFlits != n || f.VC != 3 {
			t.Fatalf("flit %d: seq %d of %d on VC %d", i, f.SeqInPkt, f.PktFlits, f.VC)
		}
		if f.PacketID != 7 || f.Src != 1 || f.Dst != 2 || f.VNet != VNetResp || !f.Loop || f.InjectCycle != 11 {
			t.Fatalf("flit %d does not carry the packet's header: %+v", i, *f)
		}
		if (f.Payload != nil) != (i == 0) {
			t.Fatalf("flit %d payload %v: the payload rides the head flit only", i, f.Payload)
		}
	}
	if p.Payload != nil {
		t.Fatal("the head flit takes the payload out of the envelope")
	}
	if pool.flits.Out() != int(n) {
		t.Fatalf("pool counts %d flits out, want %d", pool.flits.Out(), n)
	}
}

// TestFlitizeSingle: a packet that fits one flit is a head-tail flit.
func TestFlitizeSingle(t *testing.T) {
	p := &Packet{SizeBytes: 8, Payload: 1}
	f := mintFlit(p, 0, int32(DAPPER(4, 4).FlitsFor(p.SizeBytes)), 0, &flitPool{})
	if f.Type != HeadTailFlit || !f.IsHead() || !f.IsTail() || f.PktFlits != 1 || f.Payload != 1 {
		t.Fatalf("single-flit packet wrong: %+v", *f)
	}
}

func TestFreeOutputVCsIdleNetwork(t *testing.T) {
	cfg := SnackPlatform(4, 4, true)
	eng, net := build(t, cfg)
	eng.Run(5)
	// Corner router 0 has 2 mesh outputs × 2 comm vnets × 4 VCs = 16.
	if got := net.Router(0).FreeOutputVCs(true); got != 16 {
		t.Fatalf("free comm VCs = %d, want 16", got)
	}
	// Including snack vnet: 2 × 3 × 4 = 24.
	if got := net.Router(0).FreeOutputVCs(false); got != 24 {
		t.Fatalf("free total VCs = %d, want 24", got)
	}
}

// TestHotRecordSizes pins the layout of the records a network allocates
// by the hundred thousand: a flit is one cache line, an input VC half
// of one, a packet envelope one. A new field in any of them is a
// conscious choice, made here.
func TestHotRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Flit{}); n > 64 {
		t.Errorf("Flit is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(inputVC{}); n != 32 {
		t.Errorf("inputVC is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Packet{}); n != 64 {
		t.Errorf("Packet is %d bytes, want 64", n)
	}
}
