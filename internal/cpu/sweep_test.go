package cpu

import (
	"os"
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// TestParameterSweep maps profile parameters to NoC utilization; run
// explicitly with SNACK_SWEEP=1 when recalibrating benchmark profiles.
// The reported medians follow the paper's method: per-router utilization
// sampled over fixed windows, median taken across the run (warmup
// excluded).
func TestParameterSweep(t *testing.T) {
	if os.Getenv("SNACK_SWEEP") == "" {
		t.Skip("set SNACK_SWEEP=1 to run the calibration sweep")
	}
	type combo struct {
		mem, seq, shared float64
		ws, sharedBlocks int
	}
	combos := []combo{
		{0.20, 0.6, 0.0005, 200, 8192},
		{0.20, 0.6, 0.001, 200, 8192},
		{0.20, 0.6, 0.002, 200, 8192},
		{0.25, 0.6, 0.005, 256, 8192},
		{0.25, 0.6, 0.010, 256, 8192},
		{0.25, 0.6, 0.030, 256, 16384},
		{0.30, 0.6, 0.060, 256, 16384},
		{0.35, 0.6, 0.120, 384, 32768},
		{0.40, 0.5, 0.250, 384, 65536},
		{0.45, 0.5, 0.400, 384, 65536},
	}
	for _, c := range combos {
		p := &traffic.Profile{
			Name: "sweep", Instrs: 250_000, MLP: 6, BlockFrac: 0.3,
			Phases: []traffic.Phase{{
				Frac: 1, MemFrac: c.mem, WriteFrac: 0.2, SharedFrac: c.shared,
				SeqFrac: c.seq, WSBlocks: c.ws, SharedBlocks: c.sharedBlocks,
			}},
		}
		eng := sim.NewEngine()
		net, _ := noc.New(eng, noc.DAPPER(4, 4))
		net.EnableSampling(2000)
		sys, _ := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
		w, _ := NewWorkload(eng, sys, p, 42)
		rt, ok := Run(eng, w, 100_000_000)
		if !ok {
			t.Fatalf("%+v did not finish", c)
		}
		med, max := SteadyStateXbar(net, 0.25)
		t.Logf("mem=%.2f seq=%.2f sh=%.4f ws=%-5d shb=%-6d rt=%8d ipc=%.2f l1hit=%.3f xbar med=%5.2f%% max=%5.2f%%",
			c.mem, c.seq, c.shared, c.ws, c.sharedBlocks, rt,
			float64(p.Instrs)/float64(rt), sys.L1HitRate(),
			med, max)
	}
}

// SteadyStateXbar returns the median (across routers, of per-router
// sample medians) and the overall maximum sample of crossbar usage,
// skipping the warmup fraction of each series.
func SteadyStateXbar(net *noc.Network, skip float64) (medianPct, maxPct float64) {
	var medians []float64
	for _, r := range net.Routers() {
		s := net.Samples().Column(int(r.ID()))
		if len(s) == 0 {
			continue
		}
		from := int(float64(len(s)) * skip)
		tail := s[from:]
		if len(tail) == 0 {
			tail = s
		}
		medians = append(medians, stats.Median(tail)*100)
		for _, v := range tail {
			if v*100 > maxPct {
				maxPct = v * 100
			}
		}
	}
	return stats.Median(medians), maxPct
}
