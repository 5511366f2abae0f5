package experiments

import (
	"fmt"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// Fig12Cell is one bar of Fig 12: the runtime impact of one kernel
// (with or without priority arbitration) on one benchmark.
type Fig12Cell struct {
	Kernel    cpu.KernelName
	Priority  bool
	ImpactPct float64
	// KernelSlowdownPct is the kernel-side cost of sharing (§V-C text:
	// never more than 3.86% over zero load).
	KernelSlowdownPct float64
	KernelRuns        int
	Offloaded         int64
}

// Fig12Row is one benchmark's cells.
type Fig12Row struct {
	Benchmark string
	Cells     []Fig12Cell
}

// Fig12Result is the QoS study: the paper's headline claim is that
// co-running snack kernels cost CMP applications at most ~1.1% runtime
// (0.83% with priority arbitration).
type Fig12Result struct {
	Rows []Fig12Row
	// Fig11 is the LULESH×SPMV crossbar time series (the co-run side of
	// Fig 11; Fig 2a-3 is the benchmark-alone side).
	Fig11 *CoRunResult
}

// RunFig12 reproduces Fig 12 for the given benchmarks and kernels. The
// full paper matrix is 16 benchmarks × 4 kernels × 2 arbitration modes;
// every benchmark × kernel × mode co-run is an independent simulation,
// so the flattened matrix runs on the sweep worker pool and the rows
// (and the Fig 11 pick) are assembled afterwards in serial order.
func (s RunSpec) RunFig12(benchmarks []*traffic.Profile, kernels []cpu.KernelName, dims KernelDims, scale Scale, priorityModes []bool) (*Fig12Result, error) {
	// The leg memo (legmemo.go) is this sweep's: shared across its
	// cells, dropped when it returns.
	memo := s.newLegMemo()
	np := len(priorityModes)
	nk := len(kernels) * np
	cells := make([]*CoRunResult, len(benchmarks)*nk)
	err := s.forEach(len(cells), func(i int) error {
		prof := benchmarks[i/nk]
		k := kernels[(i%nk)/np]
		pri := priorityModes[i%np]
		spec := CoRunSpec{
			Bench: prof, Kernel: k, Dims: dims,
			Width: 4, Height: 4, Priority: pri, Scale: scale,
		}
		r, err := s.runCoRun(spec, memo)
		if err != nil {
			return fmt.Errorf("fig12 %s × %s (pri=%v): %w", prof.Name, k, pri, err)
		}
		cells[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for bi, prof := range benchmarks {
		row := Fig12Row{Benchmark: prof.Name}
		for ki, k := range kernels {
			for pi, pri := range priorityModes {
				r := cells[bi*nk+ki*np+pi]
				row.Cells = append(row.Cells, Fig12Cell{
					Kernel:            k,
					Priority:          pri,
					ImpactPct:         r.ImpactPct(),
					KernelSlowdownPct: r.KernelSlowdownPct(),
					KernelRuns:        r.KernelRuns,
					Offloaded:         r.Offloaded,
				})
				if prof.Name == "LULESH" && k == cpu.KernelSPMV && pri {
					res.Fig11 = r
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// MaxImpact returns the worst benchmark impact for a given arbitration
// mode across all rows and kernels.
func (r *Fig12Result) MaxImpact(priority bool) float64 {
	max := 0.0
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if c.Priority == priority && c.ImpactPct > max {
				max = c.ImpactPct
			}
		}
	}
	return max
}

// MaxKernelSlowdown returns the worst kernel-side slowdown observed.
func (r *Fig12Result) MaxKernelSlowdown() float64 {
	max := 0.0
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if c.KernelSlowdownPct > max {
				max = c.KernelSlowdownPct
			}
		}
	}
	return max
}

// Fig13Point is one bar of Fig 13: SGEMM's impact on one benchmark at
// one platform size.
type Fig13Point struct {
	Benchmark string
	Nodes     int
	ImpactPct float64
}

// Fig13Result is the scalability study: impact of co-running SGEMM as
// the platform grows from 16 to 128 cores and RCUs.
type Fig13Result struct {
	Points []Fig13Point
}

// Fig13Meshes returns the paper's platform sizes as mesh dimensions.
func Fig13Meshes() [][2]int {
	return [][2]int{{4, 4}, {8, 4}, {8, 8}, {16, 8}}
}

// RunFig13 reproduces Fig 13 for the given benchmarks. The mesh ×
// benchmark cells run on the sweep worker pool.
func (s RunSpec) RunFig13(benchmarks []*traffic.Profile, dims KernelDims, scale Scale) (*Fig13Result, error) {
	memo := s.newLegMemo()
	meshes := Fig13Meshes()
	nb := len(benchmarks)
	points := make([]Fig13Point, len(meshes)*nb)
	err := s.forEach(len(points), func(i int) error {
		mesh := meshes[i/nb]
		prof := benchmarks[i%nb]
		nodes := mesh[0] * mesh[1]
		// Keep total simulated work bounded as the mesh grows.
		cellScale := scale * Scale(16.0/float64(nodes))
		spec := CoRunSpec{
			Bench: prof, Kernel: cpu.KernelSGEMM, Dims: dims,
			Width: mesh[0], Height: mesh[1], Priority: true, Scale: cellScale,
		}
		r, err := s.runCoRun(spec, memo)
		if err != nil {
			return fmt.Errorf("fig13 %s at %d nodes: %w", prof.Name, nodes, err)
		}
		points[i] = Fig13Point{
			Benchmark: prof.Name,
			Nodes:     nodes,
			ImpactPct: r.ImpactPct(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig13Result{Points: points}, nil
}

// MaxImpact returns the worst impact at one platform size.
func (r *Fig13Result) MaxImpact(nodes int) float64 {
	max := 0.0
	for _, p := range r.Points {
		if p.Nodes == nodes && p.ImpactPct > max {
			max = p.ImpactPct
		}
	}
	return max
}
