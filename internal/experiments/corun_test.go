package experiments

import (
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// TestCoRunInterferenceSmall checks the Fig 12 mechanics on two
// representative benchmarks: kernels must complete continually during
// the benchmark, the benchmark impact must stay small (the paper's
// headline is <1.1%, 0.83% with priority arbitration), and the kernel
// itself must not slow down much (§V-C: at most 3.86%).
func TestCoRunInterferenceSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("co-run experiment skipped in -short")
	}
	dims := KernelDims{SGEMMDim: 24, ReduceLen: 4000, MACLen: 4000, SPMVDim: 48, SPMVDensity: 0.3}
	for _, bench := range []*traffic.Profile{traffic.CoMD(), traffic.Radix()} {
		for _, pri := range []bool{true, false} {
			spec := CoRunSpec{
				Bench: bench, Kernel: cpu.KernelSGEMM, Dims: dims,
				Width: 4, Height: 4, Priority: pri, Scale: 0.25,
			}
			r, err := RunSpec{}.RunCoRun(spec)
			if err != nil {
				t.Fatalf("%s pri=%v: %v", bench.Name, pri, err)
			}
			t.Logf("%-8s pri=%-5v impact=%+.3f%% kernelRuns=%d kernelSlow=%+.2f%% offloaded=%d (base %d, corun %d)",
				bench.Name, pri, r.ImpactPct(), r.KernelRuns, r.KernelSlowdownPct(), r.Offloaded,
				r.BaselineRuntime, r.Runtime)
			if r.KernelRuns < 2 {
				t.Errorf("%s pri=%v: only %d kernel runs completed", bench.Name, pri, r.KernelRuns)
			}
			if r.ImpactPct() > 5 {
				t.Errorf("%s pri=%v: impact %.2f%% far above the paper's ~1%% region",
					bench.Name, pri, r.ImpactPct())
			}
		}
	}
}
