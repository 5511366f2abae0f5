package noc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"snacknoc/internal/sim"
)

func TestPatternsProduceValidDestinations(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	rng := uint64(1)
	next := func() uint64 { rng = rng*2862933555777941757 + 3037000493; return rng }
	for _, p := range []Pattern{UniformRandom(), Transpose(), BitComplement(), Hotspot(5, 30)} {
		for src := NodeID(0); src < 16; src++ {
			for i := 0; i < 50; i++ {
				d := p.Dst(cfg, src, next())
				if int(d) < 0 || int(d) >= 16 {
					t.Fatalf("%s: dst %d out of range", p.Name, d)
				}
				if p.Name == "uniform" && d == src {
					t.Fatalf("uniform produced self-traffic")
				}
			}
		}
	}
}

func TestTransposeMapsCoordinates(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	p := Transpose()
	if d := p.Dst(cfg, cfg.Node(1, 3), 0); d != cfg.Node(3, 1) {
		t.Fatalf("transpose(1,3) = %d, want node (3,1)", d)
	}
}

func TestBitComplementSymmetry(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	p := BitComplement()
	for src := NodeID(0); src < 16; src++ {
		d := p.Dst(cfg, src, 0)
		back := p.Dst(cfg, d, 0)
		if back != src {
			t.Fatalf("complement not involutive: %d -> %d -> %d", src, d, back)
		}
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	p := Hotspot(7, 40)
	rng := uint64(99)
	next := func() uint64 { rng = rng*2862933555777941757 + 3037000493; return rng }
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if p.Dst(cfg, 2, next()) == 7 {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("hotspot fraction %v, want ~0.40-0.46 (incl. uniform hits)", frac)
	}
}

func TestSyntheticInjectorDeliversAtLowLoad(t *testing.T) {
	cfg := BiNoCHS(4, 4)
	eng := sim.NewEngine()
	net, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewSyntheticInjector(net, UniformRandom(), 0.02, CtrlBytes, VNetReq, 7)
	eng.Register(inj)
	eng.Run(20000)
	if inj.Injected() == 0 {
		t.Fatal("nothing injected")
	}
	if got := float64(inj.Received()) / float64(inj.Injected()); got < 0.99 {
		t.Fatalf("low-load delivery ratio %v, want ~1", got)
	}
	if inj.AvgLatency() <= 0 || inj.AvgLatency() > 30 {
		t.Fatalf("low-load avg latency %v cycles, want small", inj.AvgLatency())
	}
}

// TestLoadLatencyCurveShape verifies the textbook NoC behaviour this
// simulator must exhibit: latency near the zero-load bound at low rates,
// rising monotonically, then saturating at high offered load.
func TestLoadLatencyCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("load-latency sweep skipped in -short")
	}
	rates := []float64{0.01, 0.05, 0.15, 0.30, 0.60}
	pts, err := LoadLatencyCurve(BiNoCHS(4, 4), UniformRandom(), rates, DataBytes, 30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		t.Logf("rate %.2f: avg latency %6.1f cy, throughput %.3f pkt/node/cy, saturated=%v",
			pt.Rate, pt.AvgLatency, pt.Throughput, pt.Saturated)
		if i > 0 && pt.AvgLatency+1e-9 < pts[i-1].AvgLatency {
			t.Errorf("latency fell from %.1f to %.1f as load rose", pts[i-1].AvgLatency, pt.AvgLatency)
		}
	}
	if pts[0].Saturated {
		t.Error("1% load reported saturated")
	}
	if !pts[len(pts)-1].Saturated {
		t.Error("60% offered load of 3-flit packets should saturate a 4x4 mesh")
	}
	if pts[len(pts)-1].AvgLatency < 3*pts[0].AvgLatency {
		t.Errorf("saturation latency %.1f not clearly above zero-load %.1f",
			pts[len(pts)-1].AvgLatency, pts[0].AvgLatency)
	}
	// Throughput must be monotone non-decreasing until saturation.
	for i := 1; i < len(pts); i++ {
		if !pts[i].Saturated && pts[i].Throughput+1e-9 < pts[i-1].Throughput {
			t.Errorf("throughput dropped before saturation at rate %v", pts[i].Rate)
		}
	}
}

// TestLoadLatencyPointsMatchFreshCurves: every point LoadLatencyPoints
// measures on its one shared network is bit-equal to a fresh
// single-point LoadLatencyCurve on that point's own configuration, and
// the caller's configuration is left as it was. The mini-grid is the DSE
// probe's case (one rate, four channel widths, so later points replay
// the first point's draws); the DAPPER rows restore after a saturated
// point and replay a rate two points back, serial and sharded.
func TestLoadLatencyPointsMatchFreshCurves(t *testing.T) {
	type probe struct {
		cfg    *Config
		points []ProbePoint
		cycles int64
	}
	var probes []probe
	for _, size := range [][2]int{{4, 4}, {8, 4}} {
		for _, vc := range []int{2, 16} {
			for _, buf := range []int{1, 8} {
				var points []ProbePoint
				for _, w := range []int{8, 16, 32, 64} {
					points = append(points, ProbePoint{Rate: 0.03, ChannelWidthBytes: w})
				}
				probes = append(probes, probe{SnackPlatformCustom(size[0], size[1], true, vc, buf, 16), points, 800})
			}
		}
	}
	for _, shards := range []int{1, 2} {
		cfg := DAPPER(4, 4)
		cfg.Shards = shards
		w := cfg.ChannelWidthBytes
		probes = append(probes, probe{cfg, []ProbePoint{{0.02, w}, {0.30, w}, {0.02, w}}, 1500})
	}
	for _, p := range probes {
		label := fmt.Sprintf("%s %dx%d vc %d buf %d shards %d", p.cfg.Name, p.cfg.Width, p.cfg.Height,
			p.cfg.VNets[0].VCs, p.cfg.VNets[0].BufDepth, p.cfg.Shards)
		before, vnets := *p.cfg, slices.Clone(p.cfg.VNets)
		got, err := LoadLatencyPoints(p.cfg, UniformRandom(), p.points, DataBytes, p.cycles, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*p.cfg, before) || !slices.Equal(p.cfg.VNets, vnets) {
			t.Errorf("%s: LoadLatencyPoints changed the caller's config to %+v", label, *p.cfg)
		}
		for i, pt := range p.points {
			own := *p.cfg
			own.ChannelWidthBytes = pt.ChannelWidthBytes
			want, err := LoadLatencyCurve(&own, UniformRandom(), []float64{pt.Rate}, DataBytes, p.cycles, 11)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want[0] {
				t.Errorf("%s point %d (rate %v, width %d): %+v, a fresh curve measures %+v",
					label, i, pt.Rate, pt.ChannelWidthBytes, got[i], want[0])
			}
		}
		// The rows must tell their points apart, or the equality above
		// proves nothing about restoring and resetting between them.
		if p.cfg.Name == "SnackNoC" && got[0].AvgLatency == got[len(got)-1].AvgLatency {
			t.Errorf("%s: widths 8 and 64 measure the same latency %v", label, got[0].AvgLatency)
		}
		if p.cfg.Name == "DAPPER" && (got[0].Saturated || !got[1].Saturated) {
			t.Errorf("%s: want the middle point saturated and the first not, got %+v", label, got)
		}
	}
}
