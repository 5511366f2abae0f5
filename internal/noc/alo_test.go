package noc_test

import (
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// TestALOEarlyExitAgreesWithFullCount: the ALO detector asks whether at
// least its threshold of communication VCs is free, and stops counting
// once it has seen that many. On every cycle of a MAC kernel run and of a
// co-run, at every router, that answer must equal the full count's at the
// CPM's threshold, at the count itself and one past it.
func TestALOEarlyExitAgreesWithFullCount(t *testing.T) {
	th := core.DefaultPlatformConfig().CPM.ALOThreshold
	t.Run("MAC", func(t *testing.T) {
		eng := sim.NewEngine()
		plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
		if err != nil {
			t.Fatal(err)
		}
		prog, err := experiments.CompileKernel(cpu.KernelMAC, experiments.DSESmokeDims(), 16, 2020)
		if err != nil {
			t.Fatal(err)
		}
		c := &aloCheck{t: t, net: plat.Net, th: th}
		eng.Register(c)
		if _, err := plat.Run(prog, 10_000_000); err != nil {
			t.Fatal(err)
		}
		c.report()
	})
	t.Run("co-run", func(t *testing.T) {
		eng, target := buildCoRun(t, traffic.Scale(traffic.Graph500(), 0.2))
		c := &aloCheck{t: t, net: target.Net, th: th}
		eng.Register(c)
		eng.Run(8000)
		c.report()
	})
}

// aloCheck is a component that compares the two counts at every router
// each cycle.
type aloCheck struct {
	t           *testing.T
	net         *noc.Network
	th          int
	cycles      int64
	below, seen int64 // router-cycles under the threshold, and in all
}

func (c *aloCheck) Name() string { return "alo-check" }

func (c *aloCheck) Evaluate(cycle int64) {
	c.cycles++
	for _, r := range c.net.Routers() {
		full := r.FreeOutputVCs()
		for _, n := range []int{c.th, full, full + 1} {
			if got := r.FreeOutputVCsAtLeast(n); got != (full >= n) {
				c.t.Fatalf("cycle %d, %s: %d free VCs, at-least-%d says %v", cycle, r.Name(), full, n, got)
			}
		}
		if full < c.th {
			c.below++
		}
		c.seen++
	}
}

func (c *aloCheck) Advance(int64) {}

func (c *aloCheck) report() {
	c.t.Helper()
	if c.cycles == 0 {
		c.t.Fatal("the check never ran")
	}
	c.t.Logf("%d cycles, %d of %d router-cycles under the threshold %d", c.cycles, c.below, c.seen, c.th)
}
