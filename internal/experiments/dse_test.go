package experiments

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

// dseTestConfig is the tiny 3×2×2 grid shared by the golden test and
// the scripts/ci.sh DSE smoke (which regenerates results/dse-smoke.txt
// through cmd/snackdse with the equivalent flags).
func dseTestConfig() DSEConfig {
	cfg := DefaultDSEConfig()
	cfg.Axes = DSEAxes{
		BufDepths:  []int{1, 2, 4},
		ChanWidths: []int{16, 32},
		VCCounts:   []int{2, 4},
		RCUCounts:  []int{16},
	}
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC}
	cfg.Dims = DSESmokeDims()
	return cfg
}

// TestDSEGoldenByteIdentical pins the rendered report for the tiny grid
// against the committed artifact.
func TestDSEGoldenByteIdentical(t *testing.T) {
	res, err := RunSpec{}.RunDSE(dseTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderDSE(&buf, res)
	compareArtifact(t, "../../results/dse-smoke.txt", buf.Bytes())
}

// TestDSEInvariantToSchedulingAndPooling is the tentpole determinism
// bar: the rendered report must be byte-identical across worker counts
// and with platform reuse disabled (every leg building cold). This is
// also the race detector's route through the reset path and the DSE
// work-queue scheduler (-j 4 runs four groups' platforms at once).
func TestDSEInvariantToSchedulingAndPooling(t *testing.T) {
	cfg := dseTestConfig()
	render := func(run RunSpec) []byte {
		res, err := run.RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderDSE(&buf, res)
		return buf.Bytes()
	}
	want := render(RunSpec{Workers: 1})

	for _, j := range []int{2, 4} {
		if got := render(RunSpec{Workers: j}); !bytes.Equal(got, want) {
			t.Fatalf("-j %d report diverged from -j 1", j)
		}
	}
	cfg.PoolDepth = -1 // every leg builds cold
	if got := render(RunSpec{Workers: 4}); !bytes.Equal(got, want) {
		t.Fatal("every-leg-cold report diverged from the reset report")
	}
}

// legGroups is the number of leg groups of a grid whose axes repeat no
// value: one per cell shape with the channel width left out.
func legGroups(a DSEAxes) int {
	return len(a.BufDepths) * len(a.VCCounts) * len(a.RCUCounts)
}

// TestDSEPoolTraffic checks that a leg group's platform is reused:
// with K kernels per leg group and serial workers, every group builds
// once and resets its platform for each later leg.
func TestDSEPoolTraffic(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	res, err := RunSpec{Workers: 1}.RunDSE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := int64(legGroups(cfg.Axes))
	if res.PoolMisses != groups {
		t.Fatalf("misses = %d, want one build per leg group (%d)", res.PoolMisses, groups)
	}
	if res.PoolHits != groups || res.Forks != groups {
		t.Fatalf("hits = %d forks = %d, want one recycled leg per leg group (%d)", res.PoolHits, res.Forks, groups)
	}
}

// TestDSELegsSharedAcrossChannelWidths pins the leg and probe sharing:
// every cell of a grid over four channel widths must carry the kernel
// cycles and the probe latency a one-cell sweep of exactly that cell
// measures, while the sweep runs one leg per kernel per leg group. A
// model change that makes a kernel's packets width-dependent fails here
// (or in runLeg's guard).
func TestDSELegsSharedAcrossChannelWidths(t *testing.T) {
	cfg := DefaultDSEConfig()
	cfg.Axes = DSEAxes{
		BufDepths:  []int{1, 4},
		ChanWidths: []int{8, 16, 32, 64},
		VCCounts:   []int{2, 4},
		RCUCounts:  []int{16, 32},
	}
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelSGEMM}
	cfg.Dims = DSESmokeDims()
	run := RunSpec{Workers: 1}
	res, err := run.RunDSE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := legGroups(cfg.Axes)
	if want := groups * len(cfg.Kernels); res.Legs != want {
		t.Errorf("Legs = %d, want %d (one per kernel per leg group)", res.Legs, want)
	}
	if res.PoolMisses != int64(groups) {
		t.Errorf("pool misses = %d, want one build per leg group (%d)", res.PoolMisses, groups)
	}
	for i, c := range res.Cells {
		one := cfg
		one.Axes = DSEAxes{[]int{c.BufDepth}, []int{c.ChanWidth}, []int{c.VCs}, []int{c.RCUs}}
		ref, err := run.RunDSE(one)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(c.KernelCycles, ref.Cells[0].KernelCycles) {
			t.Errorf("cell %d (buf %d chan %d vc %d rcu %d): kernel cycles %v, a one-cell sweep measures %v",
				i, c.BufDepth, c.ChanWidth, c.VCs, c.RCUs, c.KernelCycles, ref.Cells[0].KernelCycles)
		}
		if c.LatencyCycles != ref.Cells[0].LatencyCycles {
			t.Errorf("cell %d (buf %d chan %d vc %d rcu %d): probe latency %v, a one-cell sweep measures %v",
				i, c.BufDepth, c.ChanWidth, c.VCs, c.RCUs, c.LatencyCycles, ref.Cells[0].LatencyCycles)
		}
	}
}

// TestDSENetworkBuilds pins what the benchmark's dse_fork_sweep grid
// (64 cells in 16 leg groups, two kernels) costs in network builds at
// -j 1, 2 and 4: one platform per leg group, reset for the group's
// second leg, and one probe network per leg group: 32 builds. A group is
// one work item, so no worker count builds a group twice.
func TestDSENetworkBuilds(t *testing.T) {
	cfg := DefaultDSEConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelSGEMM}
	cfg.Dims = DSESmokeDims()
	cfg.Axes.BufDepths = []int{2, 8}
	groups := legGroups(cfg.Axes)
	for _, j := range []int{1, 2, 4} {
		before := noc.Built()
		res, err := RunSpec{Workers: j}.RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := noc.Built() - before; got != 2*int64(groups) || res.PoolMisses != int64(groups) {
			t.Errorf("-j %d: %d networks built, %d of them platforms; want %d: %d platforms and %d probes",
				j, got, res.PoolMisses, 2*groups, groups, groups)
		}
	}
}

// TestDSERejectsRepeatedKernel: a kernel listed twice would score every
// cell on it twice; it is an error, not a skewed geometric mean.
func TestDSERejectsRepeatedKernel(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelMAC}
	if _, err := (RunSpec{}).RunDSE(cfg); err == nil {
		t.Fatal("RunDSE accepted MAC listed twice")
	}
}

// TestDSERejectsUnreachableALOThreshold: at one VC per vnet the CPM's
// router can never offer the free VCs its ALO threshold asks for, so the
// cell would never issue and spin to the cycle cap; the sweep fails with
// the build's error instead.
func TestDSERejectsUnreachableALOThreshold(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Axes.VCCounts = []int{1}
	_, err := RunSpec{}.RunDSE(cfg)
	if err == nil || !strings.Contains(err.Error(), "ALO threshold 6") {
		t.Fatalf("RunDSE at vc=1: err = %v, want the ALO threshold rejection", err)
	}
}

// TestRunLegGuardsNIInjection: a leg whose platform injected a packet at
// an NI may have read the channel width, so runLeg must fail it rather
// than return cycles the whole leg group would share.
func TestRunLegGuardsNIInjection(t *testing.T) {
	plat, err := core.NewStandalone(sim.NewEngine(), 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileKernel(cpu.KernelMAC, DSESmokeDims(), 16, Seed)
	if err != nil {
		t.Fatal(err)
	}
	plat.Net.InjectMsg(1, 2, 0, noc.DataBytes, nil, 0)
	if _, err := runLeg(plat, prog); err == nil || !strings.Contains(err.Error(), "at NIs") {
		t.Fatalf("runLeg of a leg that injected a packet at an NI returned %v, want the guard's error", err)
	}
}

// synthCells builds deterministic pseudo-random score vectors for the
// pure frontier property tests.
func synthCells(n int, seed int64) []DSECell {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]DSECell, n)
	for i := range cells {
		cells[i] = DSECell{
			Speedup:       1 + rng.Float64()*9,
			LatencyCycles: 5 + rng.Float64()*30,
			PowerW:        0.1 + rng.Float64()*2,
			AreaMM:        1 + rng.Float64()*10,
		}
	}
	// Inject exact duplicates and strictly-dominated points.
	for i := 0; i+7 < n; i += 7 {
		cells[i+1] = cells[i]
		d := cells[i]
		d.Speedup *= 0.5
		d.PowerW *= 2
		cells[i+2] = d
	}
	return cells
}

// TestParetoFrontierProperties: the frontier is an antichain, every
// excluded cell is dominated by a frontier member, and membership is
// insensitive to cell evaluation order.
func TestParetoFrontierProperties(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cells := synthCells(100, seed)
		frontier := paretoFrontier(cells)
		if len(frontier) == 0 {
			t.Fatal("empty frontier")
		}
		on := make(map[int]bool, len(frontier))
		for _, i := range frontier {
			on[i] = true
		}
		for _, i := range frontier {
			for _, j := range frontier {
				if i != j && dominates(&cells[j], &cells[i]) {
					t.Fatalf("seed %d: frontier not an antichain (%d dominates %d)", seed, j, i)
				}
			}
		}
		for i := range cells {
			if on[i] {
				continue
			}
			covered := false
			for _, j := range frontier {
				if dominates(&cells[j], &cells[i]) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("seed %d: excluded cell %d not dominated by any frontier member", seed, i)
			}
		}

		// Permute, recompute, map back: same membership set.
		perm := rand.New(rand.NewSource(seed + 100)).Perm(len(cells))
		shuffled := make([]DSECell, len(cells))
		for to, from := range perm {
			shuffled[to] = cells[from]
		}
		got := make(map[int]bool, len(cells))
		for _, i := range paretoFrontier(shuffled) {
			got[perm[i]] = true
		}
		for i := range cells {
			if on[i] != got[i] {
				t.Fatalf("seed %d: frontier membership of cell %d changed under permutation", seed, i)
			}
		}
	}
}

// TestDSEPoolHoldsWorkersNotCells: a leg group is one work item that
// builds its platform, runs every kernel leg on it and drops it, so a
// worker holds one platform at a time and a spent group holds none. The
// test pins the builds that shape costs at -j 1 and -j 4 with three
// kernels: one platform and one probe network per group, and a reset
// for every later leg.
func TestDSEPoolHoldsWorkersNotCells(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction, cpu.KernelSPMV}
	groups := legGroups(cfg.Axes)
	for _, j := range []int{1, 4} {
		before := noc.Built()
		res, err := RunSpec{Workers: j}.RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := noc.Built() - before; got != 2*int64(groups) {
			t.Errorf("-j %d: %d networks built, want %d (a platform and a probe per group)", j, got, 2*groups)
		}
		resets := int64(groups * (len(cfg.Kernels) - 1))
		if res.Legs != groups*len(cfg.Kernels) || res.PoolMisses != int64(groups) ||
			res.PoolHits != resets || res.Forks != resets {
			t.Errorf("-j %d: %d legs, %d builds, %d legs on a reset platform, %d resets; want %d, %d, %d, %d",
				j, res.Legs, res.PoolMisses, res.PoolHits, res.Forks, groups*len(cfg.Kernels), groups, resets, resets)
		}
	}
}
