package experiments

import (
	"testing"

	"snacknoc/internal/cpu"
)

// TestFig9SmallScale checks the kernel study end to end at a small size:
// correct functional results, CPU scaling shape, and SnackNoC landing in
// the right performance region relative to the modeled cores.
func TestFig9SmallScale(t *testing.T) {
	dims := KernelDims{SGEMMDim: 24, ReduceLen: 4000, MACLen: 4000, SPMVDim: 48, SPMVDensity: 0.3}
	res, err := RunSpec{}.RunFig9(dims, cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		t.Logf("%-10s cores=[%.2f %.2f %.2f %.2f] snack=%.2fx (snack %d cy, cpu1 %d cy, %d instrs, %d tokens)",
			row.Kernel, row.CoreSpeedups[0], row.CoreSpeedups[1], row.CoreSpeedups[2], row.CoreSpeedups[3],
			row.SnackSpeedup, row.SnackCycles, row.CPUOneCycles, row.Instructions, row.InputTokens)
		if !row.CheckedOutput {
			t.Errorf("%s: output not verified", row.Kernel)
		}
		if row.CoreSpeedups[0] != 1.0 {
			t.Errorf("%s: 1-core speedup = %v, want 1", row.Kernel, row.CoreSpeedups[0])
		}
		if row.SnackSpeedup <= 0 {
			t.Errorf("%s: non-positive snack speedup", row.Kernel)
		}
	}
}
