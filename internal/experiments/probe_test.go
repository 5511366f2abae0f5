package experiments

import (
	"fmt"
	"testing"

	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// fullProbe measures one load point the way noc.LoadLatencyPoints did
// before it dropped the vnets its packets never use: a fresh network
// built on cfg as given, every vnet, the snack class and the compute
// port included, at the point's channel width.
func fullProbe(t *testing.T, cfg *noc.Config, pt noc.ProbePoint, cycles int64, seed uint64) noc.LoadPoint {
	t.Helper()
	own := *cfg
	own.ChannelWidthBytes = pt.ChannelWidthBytes
	eng := sim.NewEngine()
	net, err := noc.New(eng, &own)
	if err != nil {
		t.Fatal(err)
	}
	inj := noc.NewSyntheticInjector(net, noc.UniformRandom(), pt.Rate, noc.DataBytes, noc.VNetReq, seed)
	eng.Register(inj)
	eng.Run(cycles)
	return noc.LoadPoint{
		Rate:       pt.Rate,
		AvgLatency: inj.AvgLatency(),
		Throughput: float64(inj.Received()) / float64(cycles) / float64(own.Nodes()),
		Saturated:  float64(inj.Received()) < 0.8*float64(inj.Injected()),
	}
}

// TestLoadLatencyPointsMatchFullNetwork holds the probe's one-vnet
// network to the full configuration's, bit for bit: every preset and
// Fig 1 reduction across zero load, the knee and saturation, and every
// default-grid DSE group at the DSE probe's rate and widths, with
// priority arbitration on and off.
func TestLoadLatencyPointsMatchFullNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-network sweep is skipped in -short")
	}
	type probe struct {
		cfg    *noc.Config
		points []noc.ProbePoint
		cycles int64
	}
	var probes []probe
	presets := []*noc.Config{noc.SnackPlatform(4, 4, false), noc.SnackPlatform(4, 4, true)}
	for _, v := range Fig1Variants(4, 4) {
		presets = append(presets, v.Cfg)
	}
	for _, cfg := range presets {
		var points []noc.ProbePoint
		for _, rate := range []float64{0.01, 0.08, 0.3} {
			points = append(points, noc.ProbePoint{Rate: rate, ChannelWidthBytes: cfg.ChannelWidthBytes})
		}
		probes = append(probes, probe{cfg, points, 1500})
	}
	axes := DefaultDSEAxes()
	for _, rcus := range axes.RCUCounts {
		w, h, err := dseMesh(rcus)
		if err != nil {
			t.Fatal(err)
		}
		for _, vc := range axes.VCCounts {
			for _, buf := range axes.BufDepths {
				for _, pri := range []bool{false, true} {
					var points []noc.ProbePoint
					for _, cw := range axes.ChanWidths {
						points = append(points, noc.ProbePoint{Rate: dseProbeRate, ChannelWidthBytes: cw})
					}
					// A quarter of the DSE's probe length keeps the
					// thousand-odd reference networks to seconds.
					cfg := noc.SnackPlatformCustom(w, h, pri, vc, buf, axes.ChanWidths[0])
					probes = append(probes, probe{cfg, points, dseProbeCycles / 4})
				}
			}
		}
	}
	for _, p := range probes {
		cfg := p.cfg
		label := fmt.Sprintf("%s %dx%d vc %d buf %d prio %v", cfg.Name, cfg.Width, cfg.Height,
			cfg.VNets[0].VCs, cfg.VNets[0].BufDepth, cfg.PriorityArb)
		got, err := noc.LoadLatencyPoints(cfg, noc.UniformRandom(), p.points, noc.DataBytes, p.cycles, Seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range p.points {
			if want := fullProbe(t, cfg, pt, p.cycles, Seed); got[i] != want {
				t.Errorf("%s point %d (rate %v, width %d): %+v, the full network measures %+v",
					label, i, pt.Rate, pt.ChannelWidthBytes, got[i], want)
			}
		}
	}
}
