package experiments

import (
	"os"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// TestInterferenceNoiseFloor estimates the timing noise of the co-run
// methodology: a near-null kernel (one instruction, resubmitted) should
// produce ~0% impact; whatever it reports is the measurement floor.
// Run with SNACK_NOISE=1 when tuning the experiment protocol.
func TestInterferenceNoiseFloor(t *testing.T) {
	if os.Getenv("SNACK_NOISE") == "" {
		t.Skip("set SNACK_NOISE=1 to probe the noise floor")
	}
	tiny := KernelDims{SGEMMDim: 2, ReduceLen: 8, MACLen: 8, SPMVDim: 8, SPMVDensity: 0.3}
	real := DefaultKernelDims()
	for _, bench := range []*traffic.Profile{traffic.CoMD(), traffic.LULESH(), traffic.Radix()} {
		for _, tc := range []struct {
			label string
			dims  KernelDims
		}{{"null", tiny}, {"sgemm", real}} {
			r, err := RunSpec{}.RunCoRun(CoRunSpec{
				Bench: bench, Kernel: cpu.KernelSGEMM, Dims: tc.dims,
				Width: 4, Height: 4, Priority: true, Scale: 1.0,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%-8s %-6s impact=%+.3f%% runs=%d", bench.Name, tc.label, r.ImpactPct(), r.KernelRuns)
		}
	}
}
