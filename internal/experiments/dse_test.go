package experiments

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/traffic"
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
	res, err := RunDSE(dseTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderDSE(&buf, res)
	compareArtifact(t, "../../results/dse-smoke.txt", buf.Bytes())
}

// TestDSEInvariantToSchedulingAndPooling is the tentpole determinism
// bar: the rendered report must be byte-identical across worker counts,
// shard counts, and with the platform pool disabled (every leg building
// cold). This is also the race-detector's route through the pooled fork
// path and the DSE work-queue scheduler (-j 4 legs share pool entries
// across goroutines).
func TestDSEInvariantToSchedulingAndPooling(t *testing.T) {
	cfg := dseTestConfig()
	render := func() []byte {
		res, err := RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderDSE(&buf, res)
		return buf.Bytes()
	}
	defer SetWorkers(0)
	SetWorkers(1)
	want := render()

	for _, j := range []int{2, 4} {
		SetWorkers(j)
		if got := render(); !bytes.Equal(got, want) {
			t.Fatalf("-j %d report diverged from -j 1", j)
		}
	}
	cfg.PoolDepth = -1 // every leg builds cold
	if got := render(); !bytes.Equal(got, want) {
		t.Fatal("pool-disabled report diverged from pooled report")
	}
	cfg.PoolDepth = 0
	SetWorkers(1)
	withShards(t, 2)
	if got := render(); !bytes.Equal(got, want) {
		t.Fatal("-shards 2 report diverged from -shards 1")
	}
}

// legGroups is the number of leg groups of a grid whose axes repeat no
// value: one per cell shape with the channel width left out.
func legGroups(a DSEAxes) int {
	return len(a.BufDepths) * len(a.VCCounts) * len(a.RCUCounts)
}

// TestDSEPoolTraffic checks that the leg scheduler actually recycles
// platforms: with K kernels per leg group and serial workers, every
// group after its first leg must hit the pool.
func TestDSEPoolTraffic(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	defer SetWorkers(0)
	SetWorkers(1)
	res, err := RunDSE(cfg)
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
	defer SetWorkers(0)
	SetWorkers(1)
	res, err := RunDSE(cfg)
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
		ref, err := RunDSE(one)
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
// -j 1: one platform per leg group, which the pool then forks for the
// group's second leg, and one probe network per leg group: 32 builds.
func TestDSENetworkBuilds(t *testing.T) {
	cfg := DefaultDSEConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelSGEMM}
	cfg.Dims = DSESmokeDims()
	cfg.Axes.BufDepths = []int{2, 8}
	defer SetWorkers(0)
	SetWorkers(1)
	before := noc.Built()
	res, err := RunDSE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := legGroups(cfg.Axes)
	if got := noc.Built() - before; got != 32 || res.PoolMisses != int64(groups) {
		t.Errorf("%d networks built, %d of them platforms; want 32: %d platforms and %d probes",
			got, res.PoolMisses, groups, groups)
	}
}

// TestDSERejectsRepeatedKernel: a kernel listed twice would score every
// cell on it twice; it is an error, not a skewed geometric mean.
func TestDSERejectsRepeatedKernel(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelMAC}
	if _, err := RunDSE(cfg); err == nil {
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
	_, err := RunDSE(cfg)
	if err == nil || !strings.Contains(err.Error(), "ALO threshold 6") {
		t.Fatalf("RunDSE at vc=1: err = %v, want the ALO threshold rejection", err)
	}
}

// TestRunLegGuardsNIInjection: a leg whose platform injected a packet at
// an NI may have read the channel width, so runLeg must fail it rather
// than return cycles the whole leg group would share.
func TestRunLegGuardsNIInjection(t *testing.T) {
	plat, err := core.NewStandalone(sim.NewEngine(), 4, 4, true, platformCfg())
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

// TestWarmSweepStateDrains pins the memo-growth fix: warmed baseline
// platforms and zero-load memos are scoped to the sweep that created
// them, so nothing survives the sweep's return — two distinct figure
// sweeps in one process no longer accumulate each other's platforms.
func TestWarmSweepStateDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced warm fig12 sweep")
	}
	SetWarmSweeps(true)
	t.Cleanup(func() { SetWarmSweeps(false) })
	benches := []*traffic.Profile{traffic.LULESH()}
	kernels := []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	if _, err := RunFig12(benches, kernels, DefaultKernelDims(), Scale(0.05), []bool{true}); err != nil {
		t.Fatal(err)
	}
	// Warm mode is still ON — the drain must come from the sweep scope
	// closing, not from SetWarmSweeps(false).
	if g, z := warmStateSize(); g != 0 || z != 0 {
		t.Fatalf("warm state after sweep: %d groups, %d zero-load memos; want a full drain", g, z)
	}
}

// TestDSEPoolHoldsWorkersNotCells pins the retention fix: every leg
// group has its own pool shape, so a platform released after its group's
// last leg would sit in the pool until the final Drain — live heap
// proportional to the grid. A spent group's platforms are dropped
// instead, and mid-sweep the pool never holds more idle platforms than
// there are workers.
func TestDSEPoolHoldsWorkersNotCells(t *testing.T) {
	cfg := dseTestConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction, cpu.KernelSPMV}
	defer SetWorkers(0)
	for _, j := range []int{1, 4} {
		SetWorkers(j)
		var mu sync.Mutex
		legs, peak := 0, 0
		res, err := runDSE(cfg, func(pool *checkpoint.Pool) {
			mu.Lock()
			defer mu.Unlock()
			legs++
			peak = max(peak, pool.Idle())
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := legGroups(cfg.Axes) * len(cfg.Kernels); legs != want || res.Legs != want {
			t.Fatalf("-j %d: observed %d legs (Legs %d), want %d", j, legs, res.Legs, want)
		}
		if peak > j {
			t.Errorf("-j %d: %d platforms idle in the pool mid-sweep, want <= %d (one per worker)", j, peak, j)
		}
		if got := res.PoolHits + res.PoolMisses; got != int64(legs) {
			t.Errorf("-j %d: %d pool lookups for %d legs", j, got, legs)
		}
	}
}
