package noc

import (
	"fmt"
	"math/bits"

	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
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
	sinks    []synSink
}

// NewSyntheticInjector attaches sinks at every node and returns the
// injector (register it with the engine to start traffic).
func NewSyntheticInjector(net *Network, pattern Pattern, rate float64, sizeBytes, vnet int, seed uint64) *SyntheticInjector {
	inj := &SyntheticInjector{
		net:       net,
		pattern:   pattern,
		Rate:      rate,
		SizeBytes: sizeBytes,
		vnet:      vnet,
		rng:       seed*0x9E3779B97F4A7C15 + 1,
	}
	// One sink per node: on a sharded network, deliveries at different
	// nodes run on different shard goroutines, so the latency statistics
	// accumulate per node and aggregate only on read.
	const buckets = 50
	inj.sinks = make([]synSink, net.Cfg().Nodes())
	counts := make([]int64, buckets*len(inj.sinks))
	for i := range inj.sinks {
		inj.sinks[i].hist = stats.MakeHistogram(500, counts[i*buckets:(i+1)*buckets:(i+1)*buckets])
		net.AttachClient(NodeID(i), &inj.sinks[i])
	}
	return inj
}

// synSink records delivered-packet latency at one node.
type synSink struct {
	received int64
	latSum   int64
	latMax   int64
	hist     stats.Histogram
}

// Deliver implements Client.
func (s *synSink) Deliver(p *Packet, cycle int64) {
	lat := cycle - p.InjectCycle
	s.received++
	s.latSum += lat
	if lat > s.latMax {
		s.latMax = lat
	}
	s.hist.Observe(float64(lat))
}

// Name implements sim.Component.
func (s *SyntheticInjector) Name() string { return "synthetic-" + s.pattern.Name }

func (s *SyntheticInjector) next() uint64 {
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return s.rng >> 11
}

// Evaluate injects per-node Bernoulli traffic.
func (s *SyntheticInjector) Evaluate(cycle int64) {
	nodes := s.net.Cfg().Nodes()
	for n := 0; n < nodes; n++ {
		if float64(s.next()%1_000_000)/1_000_000 >= s.Rate {
			continue
		}
		src := NodeID(n)
		s.net.InjectMsg(src, s.pattern.Dst(s.net.Cfg(), src, s.next()),
			s.vnet, s.SizeBytes, nil, cycle)
		s.injected++
	}
}

// Advance implements sim.Component.
func (s *SyntheticInjector) Advance(int64) {}

// Injected returns the packets injected so far.
func (s *SyntheticInjector) Injected() int64 { return s.injected }

// Received returns the packets delivered so far.
func (s *SyntheticInjector) Received() int64 {
	var n int64
	for i := range s.sinks {
		n += s.sinks[i].received
	}
	return n
}

// AvgLatency returns mean delivered-packet latency in cycles.
func (s *SyntheticInjector) AvgLatency() float64 {
	var sum, n int64
	for i := range s.sinks {
		sum += s.sinks[i].latSum
		n += s.sinks[i].received
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MaxLatency returns the worst delivered-packet latency.
func (s *SyntheticInjector) MaxLatency() int64 {
	var worst int64
	for i := range s.sinks {
		worst = max(worst, s.sinks[i].latMax)
	}
	return worst
}

// LoadPoint is one point of a load-latency curve.
type LoadPoint struct {
	Rate       float64 // injection probability per node per cycle
	AvgLatency float64
	Throughput float64 // delivered packets per node per cycle
	Saturated  bool    // network could not absorb the offered load
}

// LoadLatencyCurve sweeps injection rates on the given configuration and
// pattern, running warmup+measure cycles per point — the standard NoC
// characterization experiment.
func LoadLatencyCurve(cfg *Config, pattern Pattern, rates []float64, sizeBytes int, cycles int64, seed uint64) ([]LoadPoint, error) {
	var out []LoadPoint
	for _, rate := range rates {
		eng := sim.NewEngine()
		net, err := New(eng, cfg)
		if err != nil {
			return nil, err
		}
		inj := NewSyntheticInjector(net, pattern, rate, sizeBytes, VNetReq, seed)
		eng.Register(inj)
		eng.Run(cycles)
		nodes := float64(cfg.Nodes())
		pt := LoadPoint{
			Rate:       rate,
			AvgLatency: inj.AvgLatency(),
			Throughput: float64(inj.Received()) / float64(cycles) / nodes,
		}
		// Saturation: deliveries fall clearly behind injections.
		pt.Saturated = float64(inj.Received()) < 0.8*float64(inj.Injected())
		out = append(out, pt)
	}
	return out, nil
}
