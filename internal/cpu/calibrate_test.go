package cpu

import (
	"testing"

	"snacknoc/internal/cache"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
)

// runBenchmark executes one profile on the given NoC config and returns
// the runtime plus the median/max crossbar utilization across routers.
func runBenchmark(t *testing.T, cfg *noc.Config, prof *traffic.Profile, scale float64) (int64, float64, float64) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, cfg)
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	net.EnableSampling(2000)
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	w, err := NewWorkload(eng, sys, traffic.Scale(prof, scale), 42)
	if err != nil {
		t.Fatalf("NewWorkload: %v", err)
	}
	rt, ok := Run(eng, w, 100_000_000)
	if !ok {
		t.Fatalf("%s did not complete in budget (retired: %d/%d on core 0)",
			prof.Name, w.Cores[0].Retired(), w.Cores[0].Retired())
	}
	med, maxU := SteadyStateXbar(net, 0.25)
	return rt, med, maxU
}

// paperBands are loose reproduction bands for the steady-state median
// crossbar utilization of each profile on DAPPER, anchored to the
// paper's reported quartiles (§II-A): FMM 0.8%, Cholesky 0.5%, LULESH
// 9.3%, Graph500 13.3%, Radix hottest.
var paperBands = map[string][2]float64{
	"Barnes":         {0.3, 5},
	"Canneal":        {0.5, 7},
	"CoMD":           {0.2, 4},
	"FFT":            {1.0, 10},
	"LU":             {1.0, 10},
	"LULESH":         {5.0, 15},
	"Cholesky":       {0.1, 2.5},
	"FMM":            {0.2, 3},
	"Radiosity":      {0.8, 8},
	"Radix":          {12, 45},
	"Raytrace":       {0.5, 6},
	"Volrend":        {0.5, 6},
	"Water-NSquared": {0.2, 4},
	"Water-Spatial":  {0.2, 4},
	"XSbench":        {1.5, 12},
	"Graph500":       {8, 25},
}

// TestCalibrationReport prints the NoC-visible behaviour of every
// profile on the DAPPER baseline; run with -v to inspect when retuning.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report skipped in -short")
	}
	for _, prof := range traffic.All() {
		rt, med, max := runBenchmark(t, noc.DAPPER(4, 4), prof, 0.5)
		band := paperBands[prof.Name]
		status := "ok"
		if med < band[0] || med > band[1] {
			status = "OUT OF BAND"
			t.Errorf("%s steady-state median %.2f%% outside calibration band [%v, %v]",
				prof.Name, med, band[0], band[1])
		}
		t.Logf("%-16s runtime=%8d  xbar median=%5.2f%%  max=%5.2f%%  band=[%g,%g] %s",
			prof.Name, rt, med, max, band[0], band[1], status)
	}
}

func TestAllProfilesValidate(t *testing.T) {
	all := traffic.All()
	if len(all) != 16 {
		t.Fatalf("got %d profiles, want 16", len(all))
	}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestWorkloadCompletesAndQuiesces(t *testing.T) {
	eng := sim.NewEngine()
	net, _ := noc.New(eng, noc.BiNoCHS(4, 4))
	sys, _ := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	w, err := NewWorkload(eng, sys, traffic.Scale(traffic.CoMD(), 0.1), 7)
	if err != nil {
		t.Fatal(err)
	}
	rt, ok := Run(eng, w, 50_000_000)
	if !ok {
		t.Fatal("workload did not complete")
	}
	if rt <= 0 {
		t.Fatalf("runtime = %d", rt)
	}
	for _, c := range w.Cores {
		if c.Retired() != w.Profile.Instrs {
			t.Fatalf("core %s retired %d, want %d", c.Name(), c.Retired(), w.Profile.Instrs)
		}
	}
	eng.Run(200000)
	for i, l := range sys.L1s {
		if l.Outstanding() != 0 {
			t.Fatalf("system did not quiesce: l1 %d has %d outstanding", i, l.Outstanding())
		}
	}
}

func TestDeterministicRuntime(t *testing.T) {
	run := func() int64 {
		eng := sim.NewEngine()
		net, _ := noc.New(eng, noc.DAPPER(4, 4))
		sys, _ := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
		w, _ := NewWorkload(eng, sys, traffic.Scale(traffic.FFT(), 0.05), 99)
		rt, ok := Run(eng, w, 50_000_000)
		if !ok {
			t.Fatal("did not complete")
		}
		return rt
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different runtimes: %d vs %d", a, b)
	}
}

func TestSeedChangesStream(t *testing.T) {
	p := traffic.LULESH()
	s1 := traffic.NewStream(p, 0, 1)
	s2 := traffic.NewStream(p, 0, 2)
	same := true
	for i := 0; i < 100; i++ {
		b1, _ := s1.Next(&p.Phases[0], 16)
		b2, _ := s2.Next(&p.Phases[0], 16)
		if b1 != b2 {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}
