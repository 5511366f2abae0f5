package snacknoc

import (
	"fmt"
	"math"

	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/traffic"
)

// Kernel names one of the paper's Table III linear-algebra kernels for
// use with CoRun.
type Kernel string

// The four evaluated kernels.
const (
	SGEMM     Kernel = "SGEMM"
	Reduction Kernel = "Reduction"
	MAC       Kernel = "MAC"
	SPMV      Kernel = "SPMV"
)

// Benchmarks returns the names of the 16 Table III CMP applications
// available as co-run workloads.
func Benchmarks() []string {
	var names []string
	for _, p := range traffic.All() {
		names = append(names, p.Name)
	}
	return names
}

// CoRunReport is the outcome of a multiprogram experiment: a CMP
// benchmark executing on the simulated cores while the chosen kernel
// runs continually on the SnackNoC (the paper's §V-C methodology).
type CoRunReport struct {
	Benchmark string
	Kernel    Kernel
	// BaselineRuntime is the benchmark's runtime in cycles without
	// kernels; Runtime is with them; ImpactPct the relative slowdown.
	BaselineRuntime int64
	Runtime         int64
	ImpactPct       float64
	// KernelRuns counts kernel executions completed during the
	// benchmark; KernelCyclesAvg is their mean latency and
	// ZeroLoadCycles the same kernel's latency on an idle NoC.
	KernelRuns        int
	KernelCyclesAvg   float64
	ZeroLoadCycles    int64
	KernelSlowdownPct float64
	// TokensOffloaded counts transient tokens spilled to memory by the
	// CPM's overflow management.
	TokensOffloaded int64
	// XbarMedianPct is the co-run median crossbar utilization.
	XbarMedianPct float64
}

// CoRun executes the multiprogram scenario: the named Table III
// benchmark on the CMP cores with the given kernel executing continually
// in the communication layer. Scale trades benchmark length for
// wall-clock time: it must be positive and finite, 0 < scale ≤ 1 is
// typical, and 1.0 is the report-quality (hours-long) run. It runs
// serial kernels, cold legs and no observers, whatever else the process
// runs.
func CoRun(benchmark string, kernel Kernel, scale float64, opts ...Option) (*CoRunReport, error) {
	prof := traffic.ByName(benchmark)
	if prof == nil {
		return nil, fmt.Errorf("snacknoc: unknown benchmark %q (see Benchmarks())", benchmark)
	}
	cfg := configure(opts)
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("snacknoc: scale must be positive and finite, got %g", scale)
	}
	spec := experiments.CoRunSpec{
		Bench:    prof,
		Kernel:   cpu.KernelName(kernel),
		Dims:     experiments.DefaultKernelDims(),
		Width:    cfg.Width,
		Height:   cfg.Height,
		Priority: cfg.PriorityArbitration,
		Scale:    experiments.Scale(scale),
	}
	r, err := experiments.RunSpec{}.RunCoRun(spec)
	if err != nil {
		return nil, err
	}
	return &CoRunReport{
		Benchmark:         r.Benchmark,
		Kernel:            Kernel(r.Kernel),
		BaselineRuntime:   r.BaselineRuntime,
		Runtime:           r.Runtime,
		ImpactPct:         r.ImpactPct(),
		KernelRuns:        r.KernelRuns,
		KernelCyclesAvg:   r.KernelCyclesAvg,
		ZeroLoadCycles:    r.ZeroLoadCycles,
		KernelSlowdownPct: r.KernelSlowdownPct(),
		TokensOffloaded:   r.Offloaded,
		XbarMedianPct:     r.XbarMedianPct,
	}, nil
}
