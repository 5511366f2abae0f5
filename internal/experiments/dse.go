package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"snacknoc/internal/attrib"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/power"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// Design-space exploration (ROADMAP item 5, after the Kao & Fink
// multi-objective NoC framework): a grid search over router buffer
// depth × channel width × VC count × RCU count, each cell scored on
// four objectives — measured kernel speedup (maximize) and zero-load
// snack-vnet latency, router+SnackNoC power, and area (minimize) — with
// the non-dominated cells reported as the Pareto frontier.
//
// Throughput comes from two places. A kernel leg never reads the channel
// width (see runLeg), so cells that differ only in channel width form one
// leg group and its legs run once, on the group's first cell; the width
// shapes no part of the zero-load probe's network either, so the group's
// cells are points on one probe network (noc.LoadLatencyPoints). And the
// pooled forking path: the work queue is one item per (group, kernel)
// leg, group-major so legs sharing a platform shape are adjacent, and a
// checkpoint.Pool recycles built platforms between legs — a steady-state
// leg rewinds a pooled platform with one Restore walk instead of building
// a mesh, caches, and compute layer from scratch. A pooled platform dies
// with its shape: a finishing leg releases its entry only while more legs
// of the shape are waiting than platforms are already pooled for it, so
// the sweep holds O(workers) platforms, not O(groups).
// Outputs are deterministic: a forked platform replays exactly like a
// fresh one (the checkpoint determinism guarantee), results are
// assembled by index, and nothing wall-clock-dependent reaches the
// rendered artifact.

// DSEAxes are the swept router/platform resource values.
type DSEAxes struct {
	BufDepths  []int // flits per VC
	ChanWidths []int // channel width, bytes
	VCCounts   []int // VCs per vnet (all three vnets swept together)
	RCUCounts  []int // platform size; maps to a mesh via dseMesh
}

// Cells returns the grid size.
func (a DSEAxes) Cells() int {
	return len(a.BufDepths) * len(a.ChanWidths) * len(a.VCCounts) * len(a.RCUCounts)
}

// DefaultDSEAxes is the standard 256-cell grid.
func DefaultDSEAxes() DSEAxes {
	return DSEAxes{
		BufDepths:  []int{1, 2, 3, 4, 6, 8, 12, 16},
		ChanWidths: []int{8, 16, 32, 64},
		VCCounts:   []int{2, 4, 8, 16},
		RCUCounts:  []int{16, 32},
	}
}

// DSEConfig configures one exploration run.
type DSEConfig struct {
	Axes    DSEAxes
	Kernels []cpu.KernelName
	Dims    KernelDims
	// Priority selects §III-D3 priority arbitration on every cell.
	Priority bool
	// PoolDepth bounds idle pooled platforms per shape: 0 means one per
	// worker (the steady-state need), < 0 disables pooling entirely so
	// every leg builds cold (the A side of the determinism tests).
	PoolDepth int
}

// DefaultDSEConfig explores the default grid with every Table III
// kernel at reproduction scale.
func DefaultDSEConfig() DSEConfig {
	return DSEConfig{
		Axes:     DefaultDSEAxes(),
		Kernels:  cpu.Kernels(),
		Dims:     DefaultKernelDims(),
		Priority: true,
	}
}

// DSESmokeDims are reduced kernel sizes for CI smokes and golden tests:
// every kernel completes in well under a second of wall clock per leg.
func DSESmokeDims() KernelDims {
	return KernelDims{
		SGEMMDim:    12,
		ReduceLen:   2000,
		MACLen:      2000,
		SPMVDim:     24,
		SPMVDensity: 0.30,
	}
}

// DSECell is one evaluated design point.
type DSECell struct {
	BufDepth  int
	ChanWidth int
	VCs       int
	RCUs      int
	Width     int
	Height    int

	// KernelCycles is the measured zero-load completion latency per
	// kernel, in cfg.Kernels order.
	KernelCycles []int64
	// Speedup is the geometric mean over kernels of modeled 1-core CPU
	// cycles / measured SnackNoC cycles (the Fig 9 methodology).
	Speedup float64
	// LatencyCycles is the measured zero-load NoC latency: mean
	// delivered-packet latency of a near-zero-rate uniform-random
	// synthetic probe (cache-line-sized packets) on this cell's idle
	// mesh. Kernel legs cannot stand in for it — zero-load kernel
	// completion is CPM-issue-bound and almost insensitive to router
	// resources, so the probe is what makes channel width and mesh
	// diameter visible to the frontier.
	LatencyCycles float64
	// PowerW/AreaMM model the full NoC: per-node router cost at this
	// cell's resources plus the SnackNoC additions (RCUs + CPM).
	PowerW float64
	AreaMM float64
	// Frontier marks Pareto-optimal cells.
	Frontier bool
	// Verdict is the cell's dominant-bottleneck classification, folded
	// across its kernel legs ("" unless the run attributed). Zero-load
	// kernel cells classify cpm-issue-bound — see LatencyCycles above.
	Verdict string
}

// DSEResult is a completed exploration.
type DSEResult struct {
	Cfg      DSEConfig
	Cells    []DSECell // grid order: rcu-major, then vc, chan, buf
	Frontier []int     // indices of frontier cells, ascending

	// Legs is how many kernel legs were simulated: one per kernel per leg
	// group (cells differing only in channel width share theirs), pooled
	// or not.
	Legs int

	// Scheduler/pool traffic. Wall-clock and scheduling dependent —
	// reported on stderr and as stats gauges, never rendered into the
	// deterministic artifact.
	PoolHits   int64
	PoolMisses int64
	Forks      int64
	AvgForkNs  float64
}

// Zero-load probe: low enough that queueing is negligible (the mean
// converges to hop latency + serialization), long enough that every
// node contributes deliveries.
const (
	dseProbeRate   = 0.002
	dseProbeCycles = 4000
)

// dseMesh maps an RCU count to the paper's mesh shapes (Fig 13 family).
func dseMesh(rcus int) (w, h int, err error) {
	switch rcus {
	case 4:
		return 2, 2, nil
	case 8:
		return 4, 2, nil
	case 16:
		return 4, 4, nil
	case 32:
		return 8, 4, nil
	case 64:
		return 8, 8, nil
	case 128:
		return 16, 8, nil
	case 256:
		return 16, 16, nil
	}
	return 0, 0, fmt.Errorf("experiments: no mesh shape for %d RCUs (want 4/8/16/32/64/128/256)", rcus)
}

// dsePlatform is the payload a pool entry carries.
type dsePlatform struct {
	eng  *sim.Engine
	plat *core.Platform
	// rec reads the platform's attribution counts (nil when off). It is
	// attached, zeroing them, before Seal, so every fork rewinds them to
	// zero and a post-run fold reads exactly one leg's counts.
	rec *attrib.Recorder
}

// cellAt decodes a flat grid index (rcu-major, then vc, chan, buf — so
// consecutive indices share a mesh and mostly a shape prefix).
func (a DSEAxes) cellAt(i int) (buf, ch, vc, rcu int) {
	nb, nc, nv := len(a.BufDepths), len(a.ChanWidths), len(a.VCCounts)
	buf = a.BufDepths[i%nb]
	i /= nb
	ch = a.ChanWidths[i%nc]
	i /= nc
	vc = a.VCCounts[i%nv]
	i /= nv
	rcu = a.RCUCounts[i]
	return
}

// runLeg runs one kernel leg on a built or forked standalone platform
// and returns its completion cycles.
//
// Every cell of a leg group shares the leg, which is sound only while a
// kernel leg never reads the channel width. It does not: the width is
// read only by noc.Config.FlitsFor, only NI injection calls that, and on
// a standalone platform the CPM and the RCUs send one-flit packets
// through their compute ports. So a leg that injected anything at an NI
// may have depended on the width, and runLeg fails it rather than let it
// be shared.
func runLeg(plat *core.Platform, prog *core.Program) (int64, error) {
	r, err := plat.Run(prog, MaxRunCycles)
	if err != nil {
		return 0, err
	}
	if n := plat.Net.TotalInjected(); n != 0 {
		return 0, fmt.Errorf("kernel leg injected %d packets at NIs, whose flit counts depend on the channel width its leg group leaves out", n)
	}
	return r.Cycles(), nil
}

// RunDSE evaluates the grid and computes its Pareto frontier. Legs run
// on the sweep worker pool (-j N), one per kernel per leg group — the
// cells that differ only in channel width — and a group's legs are
// adjacent in the queue so the platform pool converges to one build per
// group per worker. The zero-load probe's network is likewise built once
// per leg group, and each of the group's cells is one point on it.
func RunDSE(cfg DSEConfig) (*DSEResult, error) { return runDSE(cfg, nil) }

// runDSE is RunDSE with an observer called after every leg (tests watch
// the platform pool through it).
func runDSE(cfg DSEConfig, afterLeg func(*checkpoint.Pool)) (*DSEResult, error) {
	if len(cfg.Kernels) == 0 || cfg.Axes.Cells() == 0 {
		return nil, fmt.Errorf("experiments: empty DSE grid")
	}
	for i, k := range cfg.Kernels {
		if slices.Contains(cfg.Kernels[:i], k) {
			return nil, fmt.Errorf("experiments: DSE kernel %s listed twice", k)
		}
	}
	nCells := cfg.Axes.Cells()
	nK := len(cfg.Kernels)

	poolDepth := cfg.PoolDepth
	usePool := poolDepth >= 0
	if poolDepth == 0 {
		poolDepth = Workers() + 1
	}
	pool := checkpoint.NewPool(poolDepth)

	// Cells map to leg groups: the platform shape with the channel width
	// left out, which is also the group's pool key. A group's cells are in
	// grid order, and its first is its representative, the cell whose
	// platform is built. Per group, unstarted counts the legs not yet
	// handed a platform and idle the platforms idle in the pool; mu makes
	// a leg's count update and its pool Get or Release one step, so idle
	// never exceeds unstarted and a spent group pools nothing.
	type legGroup struct {
		shape           string
		cells           []int
		unstarted, idle int
	}
	shards := Shards()
	var groups []legGroup
	groupOf := make([]int, nCells)
	groupIdx := make(map[string]int)
	var mu sync.Mutex

	res := &DSEResult{Cfg: cfg, Cells: make([]DSECell, nCells)}
	for i := range res.Cells {
		buf, ch, vc, rcu := cfg.Axes.cellAt(i)
		w, h, err := dseMesh(rcu)
		if err != nil {
			return nil, err
		}
		res.Cells[i] = DSECell{
			BufDepth: buf, ChanWidth: ch, VCs: vc, RCUs: rcu,
			Width: w, Height: h,
		}
		shape := fmt.Sprintf("dse/%dx%d/vc%d/buf%d/pri%v/sh%d",
			w, h, vc, buf, cfg.Priority, shards)
		g, ok := groupIdx[shape]
		if !ok {
			g = len(groups)
			groupIdx[shape] = g
			groups = append(groups, legGroup{shape: shape, unstarted: nK})
		}
		groupOf[i] = g
		groups[g].cells = append(groups[g].cells, i)
	}
	nLegs := len(groups) * nK
	res.Legs = nLegs

	// Modeled single-core CPU cycles per kernel (NoC-independent).
	cpuCfg := cpu.DefaultCPUConfig()
	cpuOne := make([]int64, nK)
	for ki, k := range cfg.Kernels {
		cpuOne[ki] = cpu.CPUKernelCycles(k, cfg.Dims.cpuDims(k), 1, cpuCfg)
	}

	// Per-cell zero-load probe latency, measured by one work item per leg
	// group after the legs. The probe is its own tiny bare-NoC simulation,
	// independent of the pooled platform, and the channel width shapes no
	// part of its network either, so a group's cells share one probe
	// network and its draws (noc.LoadLatencyPoints), one point per cell.
	cellLat := make([]float64, nCells)

	// Per-leg results, indexed like the leg items (group-major) and
	// copied to every cell of the group after the sweep. With attribution
	// on (EnableAttribution), every group's platform gets counters before
	// the pool seals it, so forks rewind them, and each cell is stamped
	// with its group's folded bottleneck verdict. The folds are merged (in
	// kernel order) after the sweep, so worker scheduling cannot reorder
	// the accumulation.
	legCycles := make([]int64, nLegs)
	attribOn := AttribEnabled()
	var legAttrib []map[string]float64
	if attribOn {
		legAttrib = make([]map[string]float64, nLegs)
	}

	err := forEach(nLegs+len(groups), func(item int) error {
		if item >= nLegs {
			grp := &groups[item-nLegs]
			points := make([]noc.ProbePoint, len(grp.cells))
			for j, ci := range grp.cells {
				points[j] = noc.ProbePoint{Rate: dseProbeRate, ChannelWidthBytes: res.Cells[ci].ChanWidth}
			}
			cell := &res.Cells[grp.cells[0]]
			nc := noc.SnackPlatformCustom(cell.Width, cell.Height, cfg.Priority,
				cell.VCs, cell.BufDepth, cell.ChanWidth)
			pts, err := noc.LoadLatencyPoints(applyShards(nc), noc.UniformRandom(),
				points, noc.DataBytes, dseProbeCycles, Seed)
			if err != nil {
				return err
			}
			for j, ci := range grp.cells {
				cellLat[ci] = pts[j].AvgLatency
			}
			return nil
		}
		grp := &groups[item/nK]
		cell := &res.Cells[grp.cells[0]]
		prog, err := CompileKernel(cfg.Kernels[item%nK], cfg.Dims, cell.RCUs, Seed)
		if err != nil {
			return err
		}
		shape := grp.shape
		build := func() (*checkpoint.Entry, error) {
			eng := sim.NewEngine()
			nc := noc.SnackPlatformCustom(cell.Width, cell.Height, cfg.Priority,
				cell.VCs, cell.BufDepth, cell.ChanWidth)
			plat, err := core.NewStandaloneOn(eng, nc, platformCfg())
			if err != nil {
				return nil, err
			}
			var rec *attrib.Recorder
			if attribOn {
				rec = attrib.NewRecorder()
				plat.SetAttrib(rec)
			}
			return pool.Seal(shape, checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat},
				&dsePlatform{eng: eng, plat: plat, rec: rec}), nil
		}
		var entry *checkpoint.Entry
		if usePool {
			mu.Lock()
			grp.unstarted--
			if entry = pool.Get(shape); entry != nil {
				grp.idle--
			}
			mu.Unlock()
		}
		if entry != nil {
			entry.Fork()
		} else if entry, err = build(); err != nil {
			return err
		}
		dp := entry.Payload().(*dsePlatform)
		if legCycles[item], err = runLeg(dp.plat, prog); err != nil {
			return fmt.Errorf("dse cell %d (%s): %w", grp.cells[0], shape, err)
		}
		if dp.rec != nil {
			// Fold before Release: once pooled again, another worker may
			// rewind and rerun this platform concurrently.
			m := make(map[string]float64)
			dp.rec.FoldInto(m)
			legAttrib[item] = m
		}
		if usePool {
			mu.Lock()
			if grp.idle < grp.unstarted {
				grp.idle++
				entry.Release()
			} // else no leg is left to use it: drop the platform
			mu.Unlock()
			if afterLeg != nil {
				afterLeg(pool)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pool.Drain()

	// Fold each cell's group legs into its scores.
	for ci := range res.Cells {
		cell := &res.Cells[ci]
		legs := groupOf[ci] * nK
		cell.KernelCycles = slices.Clone(legCycles[legs : legs+nK])
		logSum := 0.0
		for ki := range cfg.Kernels {
			logSum += math.Log(float64(cpuOne[ki]) / float64(cell.KernelCycles[ki]))
		}
		if attribOn {
			merged := make(map[string]float64)
			for _, m := range legAttrib[legs : legs+nK] {
				for key, v := range m {
					merged[key] += v
				}
			}
			cell.Verdict = attrib.Summarize(merged).Verdict
		}
		cell.Speedup = math.Exp(logSum / float64(nK))
		cell.LatencyCycles = cellLat[ci]
		rc := power.RouterCost(power.RouterParams{
			Ports: 5, VCs: 3 * cell.VCs, BufDepth: cell.BufDepth,
			ChannelBytes: cell.ChanWidth,
		})
		snack := power.SnackNoCTotal(cell.RCUs)
		nodes := float64(cell.RCUs)
		cell.PowerW = rc.PowerW*nodes + snack.PowerW
		cell.AreaMM = rc.AreaMM*nodes + snack.AreaMM
	}

	res.Frontier = paretoFrontier(res.Cells)
	for _, i := range res.Frontier {
		res.Cells[i].Frontier = true
	}

	res.PoolHits, res.PoolMisses = pool.Hits(), pool.Misses()
	res.Forks, res.AvgForkNs = pool.Forks(), pool.AvgForkNs()
	if MetricsEnabled() {
		reg := stats.NewRegistry()
		pool.RegisterMetrics(reg, "dse")
		RecordSnapshot(reg.Snapshot("dse/pool"))
	}
	return res, nil
}

// dominates reports Pareto dominance: a is at least as good as b on
// every objective and strictly better on at least one.
func dominates(a, b *DSECell) bool {
	if a.Speedup < b.Speedup || a.LatencyCycles > b.LatencyCycles ||
		a.PowerW > b.PowerW || a.AreaMM > b.AreaMM {
		return false
	}
	return a.Speedup > b.Speedup || a.LatencyCycles < b.LatencyCycles ||
		a.PowerW < b.PowerW || a.AreaMM < b.AreaMM
}

// paretoFrontier returns the indices of the non-dominated cells in
// ascending order. Membership is a pure function of the cells' scores —
// evaluation order, worker count, and shard count cannot change it.
func paretoFrontier(cells []DSECell) []int {
	var out []int
	for i := range cells {
		dominated := false
		for j := range cells {
			if i != j && dominates(&cells[j], &cells[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// RenderDSE writes the deterministic exploration report: the grid
// summary, the Pareto frontier table (sorted by descending speedup,
// ties broken by ascending area then grid index), and an ASCII
// speedup-vs-power figure with frontier cells marked.
func RenderDSE(w io.Writer, res *DSEResult) {
	a := res.Cfg.Axes
	RenderHeader(w, "DSE: Pareto Frontier over Router/Platform Resources")
	fmt.Fprintf(w, "grid: buf%v x chan%v x vc%v x rcu%v = %d cells, topology mesh\n",
		a.BufDepths, a.ChanWidths, a.VCCounts, a.RCUCounts, a.Cells())
	kn := make([]string, len(res.Cfg.Kernels))
	for i, k := range res.Cfg.Kernels {
		kn[i] = string(k)
	}
	fmt.Fprintf(w, "kernels: %s; objectives: max speedup, min latency/power/area\n",
		strings.Join(kn, ","))
	fmt.Fprintf(w, "frontier: %d of %d cells\n\n", len(res.Frontier), len(res.Cells))

	order := append([]int(nil), res.Frontier...)
	sort.SliceStable(order, func(x, y int) bool {
		cx, cy := &res.Cells[order[x]], &res.Cells[order[y]]
		if cx.Speedup != cy.Speedup {
			return cx.Speedup > cy.Speedup
		}
		if cx.AreaMM != cy.AreaMM {
			return cx.AreaMM < cy.AreaMM
		}
		return order[x] < order[y]
	})
	hasVerdict := false
	for _, i := range order {
		if res.Cells[i].Verdict != "" {
			hasVerdict = true
			break
		}
	}
	fmt.Fprintf(w, "%-6s %5s %5s %4s %4s %5s  %8s %8s %8s %8s",
		"cell", "rcu", "mesh", "vc", "buf", "chan", "speedup", "lat(cy)", "power(W)", "area(mm2)")
	if hasVerdict {
		fmt.Fprintf(w, "  %s", "verdict")
	}
	fmt.Fprintln(w)
	for _, i := range order {
		c := &res.Cells[i]
		fmt.Fprintf(w, "%-6d %5d %2dx%-2d %4d %4d %5d  %8.2f %8.2f %8.3f %8.3f",
			i, c.RCUs, c.Width, c.Height, c.VCs, c.BufDepth, c.ChanWidth,
			c.Speedup, c.LatencyCycles, c.PowerW, c.AreaMM)
		if hasVerdict {
			fmt.Fprintf(w, "  %s", c.Verdict)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nspeedup vs power (W): * frontier, . dominated\n")
	renderDSEFigure(w, res)
}

// renderDSEFigure plots speedup (y) against power (x) on a fixed
// character grid; frontier cells overdraw dominated ones.
func renderDSEFigure(w io.Writer, res *DSEResult) {
	const cols, rows = 64, 16
	minS, maxS := math.Inf(1), math.Inf(-1)
	minP, maxP := math.Inf(1), math.Inf(-1)
	for i := range res.Cells {
		c := &res.Cells[i]
		minS, maxS = math.Min(minS, c.Speedup), math.Max(maxS, c.Speedup)
		minP, maxP = math.Min(minP, c.PowerW), math.Max(maxP, c.PowerW)
	}
	if maxS == minS {
		maxS = minS + 1
	}
	if maxP == minP {
		maxP = minP + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cols))
	}
	plot := func(c *DSECell, mark byte) {
		x := int(float64(cols-1) * (c.PowerW - minP) / (maxP - minP))
		y := rows - 1 - int(float64(rows-1)*(c.Speedup-minS)/(maxS-minS))
		grid[y][x] = mark
	}
	for i := range res.Cells {
		if !res.Cells[i].Frontier {
			plot(&res.Cells[i], '.')
		}
	}
	for i := range res.Cells {
		if res.Cells[i].Frontier {
			plot(&res.Cells[i], '*')
		}
	}
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%.2fx", maxS)
		case rows - 1:
			label = fmt.Sprintf("%.2fx", minS)
		}
		fmt.Fprintf(w, "%8s |%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%8s  %-*.3f%*.3f\n", "", cols/2, minP, cols-cols/2, maxP)
}
