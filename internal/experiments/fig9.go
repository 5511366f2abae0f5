package experiments

import (
	"fmt"

	"snacknoc/internal/cpu"
)

// Fig9Row is one kernel's bars in Fig 9: speedups over a single CPU
// core for 1/2/4/8 CPU cores and for the 16-RCU SnackNoC.
type Fig9Row struct {
	Kernel        cpu.KernelName
	CoreSpeedups  [4]float64 // 1, 2, 4, 8 cores
	SnackSpeedup  float64
	SnackCycles   int64 // zero-load kernel completion latency
	CPUOneCycles  int64 // modeled single-core cycles at the same size
	Instructions  int   // compiled instruction count
	InputTokens   int   // CPM-injected transient tokens
	RCUsUsed      int
	CheckedOutput bool // functional result verified against reference
}

// Fig9Result is the kernel performance study (§V-B).
type Fig9Result struct {
	Dims KernelDims
	Rows []Fig9Row
}

// RunFig9 reproduces Fig 9: each Table III kernel executed on the
// simulated 16-RCU SnackNoC under a zero-load NoC, against the modeled
// Haswell server at 1-8 threads, all normalized to one CPU core.
//
// The CPU core-count bars are evaluated at the paper's full input sizes
// (the analytic model costs nothing to scale); the SnackNoC comparison
// point divides the modeled single-core cycles by the simulated kernel
// latency at the same reproduction-scale input.
func (s RunSpec) RunFig9(dims KernelDims, cpuCfg cpu.CPUConfig) (*Fig9Result, error) {
	res := &Fig9Result{Dims: dims}
	paper := PaperKernelDims()
	kernels := cpu.Kernels()
	rows := make([]Fig9Row, len(kernels))
	// Each kernel's compile + zero-load simulation is self-contained, so
	// the rows run on the sweep worker pool.
	err := s.forEach(len(kernels), func(ki int) error {
		k := kernels[ki]
		row := Fig9Row{Kernel: k, RCUsUsed: 16}
		for i, threads := range []int{1, 2, 4, 8} {
			row.CoreSpeedups[i] = cpu.CPUSpeedup(k, paper.cpuDims(k), threads, cpuCfg)
		}
		row.CPUOneCycles = cpu.CPUKernelCycles(k, dims.cpuDims(k), 1, cpuCfg)

		g, err := BuildKernelGraph(k, dims, Seed)
		if err != nil {
			return err
		}
		prog, err := CompileKernel(k, dims, 16, Seed)
		if err != nil {
			return err
		}
		row.Instructions = prog.Instructions()
		row.InputTokens = prog.InputTokens()

		r, _, err := s.RunKernel("fig9/"+string(k), prog, 4, 4, true)
		if err != nil {
			return fmt.Errorf("fig9 %s: %w", k, err)
		}
		row.SnackCycles = r.Cycles()
		row.SnackSpeedup = float64(row.CPUOneCycles) / float64(row.SnackCycles)

		// Verify the platform computed the right answer.
		want := g.Eval()
		if len(want) != len(r.Values) {
			return fmt.Errorf("fig9 %s: %d results, want %d", k, len(r.Values), len(want))
		}
		for i := range want {
			if want[i] != r.Values[i] {
				return fmt.Errorf("fig9 %s: result %d mismatch (%v vs %v)",
					k, i, r.Values[i].Float(), want[i].Float())
			}
		}
		row.CheckedOutput = true
		rows[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Row returns the entry for one kernel, or nil.
func (r *Fig9Result) Row(k cpu.KernelName) *Fig9Row {
	for i := range r.Rows {
		if r.Rows[i].Kernel == k {
			return &r.Rows[i]
		}
	}
	return nil
}
