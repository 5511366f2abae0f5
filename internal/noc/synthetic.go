package noc

import (
	"fmt"
	"math/bits"
	"slices"

	"snacknoc/internal/sim"
)

// Pattern maps an injecting node to a destination for one synthetic
// packet, given 64 random bits. These are the standard workloads used to
// characterize NoC designs (and to sanity-check this simulator against
// textbook behaviour): uniform random, transpose, bit-complement, and
// hotspot.
type Pattern struct {
	Name string
	Dst  func(cfg *Config, src NodeID, r uint64) NodeID
}

// UniformRandom sends each packet to a uniformly chosen other node.
func UniformRandom() Pattern {
	return Pattern{
		Name: "uniform",
		Dst: func(cfg *Config, src NodeID, r uint64) NodeID {
			d := NodeID(r % uint64(cfg.Nodes()))
			if d == src {
				d = NodeID((int(d) + 1) % cfg.Nodes())
			}
			return d
		},
	}
}

// Transpose sends (x, y) to (y, x); on non-square meshes coordinates wrap.
func Transpose() Pattern {
	return Pattern{
		Name: "transpose",
		Dst: func(cfg *Config, src NodeID, r uint64) NodeID {
			x, y := cfg.XY(src)
			return cfg.Node(y%cfg.Width, x%cfg.Height)
		},
	}
}

// BitComplement sends node i to node (N-1)-i.
func BitComplement() Pattern {
	return Pattern{
		Name: "bit-complement",
		Dst: func(cfg *Config, src NodeID, r uint64) NodeID {
			return NodeID(cfg.Nodes() - 1 - int(src))
		},
	}
}

// Hotspot sends a fraction of traffic to one node and the rest uniformly
// (the pattern behind memory-controller contention).
func Hotspot(node NodeID, pct int) Pattern {
	u := UniformRandom()
	return Pattern{
		Name: fmt.Sprintf("hotspot-%d@%d%%", node, pct),
		Dst: func(cfg *Config, src NodeID, r uint64) NodeID {
			if int(r%100) < pct && src != node {
				return node
			}
			return u.Dst(cfg, src, bits.RotateLeft64(r, 17))
		},
	}
}

// SyntheticInjector drives every node with Bernoulli packet injection at
// a fixed rate and records delivered-packet latency.
type SyntheticInjector struct {
	net     *Network
	pattern Pattern
	// Rate is the per-node injection probability per cycle.
	Rate float64
	// SizeBytes is the synthetic packet size.
	SizeBytes int
	vnet      int

	rng      uint64
	injected int64
	sink     synSink // the client at every node

	// tape, when set, records every draw Evaluate makes; replaying, when
	// set, makes Evaluate inject replay's draws instead of drawing. Only
	// LoadLatencyPoints sets them.
	tape      *[]synDraw
	replay    []synDraw
	replaying bool
}

// synDraw is one packet a SyntheticInjector drew: at cycle, src sends to
// dst.
type synDraw struct {
	cycle    int64
	src, dst NodeID
}

// NewSyntheticInjector attaches its sink at every node and returns the
// injector (register it with the engine to start traffic).
func NewSyntheticInjector(net *Network, pattern Pattern, rate float64, sizeBytes, vnet int, seed uint64) *SyntheticInjector {
	inj := &SyntheticInjector{net: net, pattern: pattern, SizeBytes: sizeBytes, vnet: vnet}
	for i := range net.Cfg().Nodes() {
		net.AttachClient(NodeID(i), &inj.sink)
	}
	inj.reset(rate, seed)
	return inj
}

// synSink counts delivered packets and sums their latencies.
type synSink struct {
	received int64
	latSum   int64
}

// Deliver implements Client.
func (s *synSink) Deliver(p *Packet, cycle int64) {
	s.received++
	s.latSum += cycle - p.InjectCycle
}

func (s *SyntheticInjector) next() uint64 {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return s.rng >> 11
}

// Evaluate injects per-node Bernoulli traffic.
func (s *SyntheticInjector) Evaluate(cycle int64) {
	if s.replaying {
		for len(s.replay) > 0 && s.replay[0].cycle == cycle {
			d := s.replay[0]
			s.replay = s.replay[1:]
			s.net.InjectMsg(d.src, d.dst, s.vnet, s.SizeBytes, nil, cycle)
			s.injected++
		}
		return
	}
	nodes := s.net.Cfg().Nodes()
	for n := 0; n < nodes; n++ {
		if float64(s.next()%1_000_000)/1_000_000 >= s.Rate {
			continue
		}
		src := NodeID(n)
		dst := s.pattern.Dst(s.net.Cfg(), src, s.next())
		if s.tape != nil {
			*s.tape = append(*s.tape, synDraw{cycle: cycle, src: src, dst: dst})
		}
		s.net.InjectMsg(src, dst, s.vnet, s.SizeBytes, nil, cycle)
		s.injected++
	}
}

// reset returns the injector to what NewSyntheticInjector(…, rate, …,
// seed) would return on its network: a fresh RNG, empty sinks, nothing
// injected, and neither recording nor replaying.
func (s *SyntheticInjector) reset(rate float64, seed uint64) {
	s.Rate = rate
	s.rng = seed*0x9E3779B97F4A7C15 + 1
	s.injected = 0
	s.sink = synSink{}
	s.tape, s.replay, s.replaying = nil, nil, false
}

// Advance implements sim.Component.
func (s *SyntheticInjector) Advance(int64) {}

// Injected returns the packets injected so far.
func (s *SyntheticInjector) Injected() int64 { return s.injected }

// Received returns the packets delivered so far.
func (s *SyntheticInjector) Received() int64 { return s.sink.received }

// AvgLatency returns mean delivered-packet latency in cycles.
func (s *SyntheticInjector) AvgLatency() float64 {
	if s.sink.received == 0 {
		return 0
	}
	return float64(s.sink.latSum) / float64(s.sink.received)
}

// LoadPoint is one point of a load-latency curve.
type LoadPoint struct {
	Rate float64 // injection probability per node per cycle
	// AvgLatency is the mean latency of the packets delivered within the
	// point's cycles, from a cold network. Packets still in flight at the
	// end are left out, which is why Saturated exists.
	AvgLatency float64
	Throughput float64 // delivered packets per node per cycle
	Saturated  bool    // network could not absorb the offered load
}

// LoadLatencyCurve sweeps injection rates on the given configuration and
// pattern — the standard NoC characterization experiment. Each point runs
// cycles cycles from a cold network; its AvgLatency is the mean latency
// of the packets delivered within them, and undelivered packets are
// excluded, which is why the Saturated flag exists.
func LoadLatencyCurve(cfg *Config, pattern Pattern, rates []float64, sizeBytes int, cycles int64, seed uint64) ([]LoadPoint, error) {
	points := make([]ProbePoint, len(rates))
	for i, rate := range rates {
		points[i] = ProbePoint{Rate: rate, ChannelWidthBytes: cfg.ChannelWidthBytes}
	}
	return LoadLatencyPoints(cfg, pattern, points, sizeBytes, cycles, seed)
}

// ProbePoint is one point of LoadLatencyPoints: an injection rate on the
// configuration with its channel width set to ChannelWidthBytes.
type ProbePoint struct {
	Rate              float64
	ChannelWidthBytes int
}

// LoadLatencyPoints measures each point as LoadLatencyCurve measures a
// rate, on cfg with the point's channel width, and returns the points in
// order. Every point equals a fresh single-rate LoadLatencyCurve on its
// own configuration, bit for bit; cfg itself is not modified.
//
// It builds one network for all of them, on a private copy of cfg that
// keeps only the request vnet: the probe's packets travel on VNetReq
// alone, and no LoadPoint field can observe a router's other vnets, its
// snack class or its compute port, so the copy drops them (SnackVNet -1)
// and the network holds one vnet's buffers instead
// of two or three (TestLoadLatencyPointsMatchFullNetwork). The
// channel width shapes no part of a network either — New sizes nothing
// from it (TestNetworkShapeIgnoresChannelWidth) and only NI injection
// reads it, through FlitsFor — so the network is built once, and before
// each later point the engine, the network and the injector are reset
// to their built state in place (Engine.Reset, Network.Reset) and the
// point's width is set on the copy. A rate an
// earlier point already ran replays that point's draws instead of
// drawing them again: the draws depend on the seed, the rate and the
// pattern over the mesh shape, none of which a point changes, provided
// pattern.Dst does not read the channel width (no pattern here does).
func LoadLatencyPoints(cfg *Config, pattern Pattern, points []ProbePoint, sizeBytes int, cycles int64, seed uint64) ([]LoadPoint, error) {
	if len(points) == 0 {
		return nil, nil
	}
	own := *cfg
	own.ChannelWidthBytes = points[0].ChannelWidthBytes
	// The full configuration must be valid, as if the probe built it.
	if err := own.Validate(); err != nil {
		return nil, err
	}
	own.VNets = []VNetConfig{cfg.VNets[VNetReq]}
	own.SnackVNet = -1
	eng := sim.NewEngine()
	net, err := New(eng, &own)
	if err != nil {
		return nil, err
	}
	inj := NewSyntheticInjector(net, pattern, points[0].Rate, sizeBytes, VNetReq, seed)
	eng.Register(inj)
	// tapes[i] holds point i's draws when a later point repeats its rate.
	tapes := make([][]synDraw, len(points))
	out := make([]LoadPoint, len(points))
	for i, pt := range points {
		if i > 0 {
			own.ChannelWidthBytes = pt.ChannelWidthBytes
			if err := own.Validate(); err != nil {
				return nil, err
			}
			eng.Reset()
			net.Reset()
			inj.reset(pt.Rate, seed)
		}
		if j := slices.IndexFunc(points[:i], func(p ProbePoint) bool { return p.Rate == pt.Rate }); j >= 0 {
			inj.replay, inj.replaying = tapes[j], true
		} else if slices.ContainsFunc(points[i+1:], func(p ProbePoint) bool { return p.Rate == pt.Rate }) {
			inj.tape = &tapes[i]
		}
		eng.Run(cycles)
		out[i] = LoadPoint{
			Rate:       pt.Rate,
			AvgLatency: inj.AvgLatency(),
			Throughput: float64(inj.Received()) / float64(cycles) / float64(own.Nodes()),
			// Saturation: deliveries fall clearly behind injections.
			Saturated: float64(inj.Received()) < 0.8*float64(inj.Injected()),
		}
	}
	return out, nil
}
