package experiments

import (
	"testing"

	"snacknoc/internal/cpu"
)

// paper9 holds the published Fig 9 bars: CPU speedups at 2/4/8 threads
// and the SnackNoC speedup, all relative to one core.
var paper9 = map[cpu.KernelName][4]float64{
	cpu.KernelSGEMM:     {2.0, 3.9, 7.86, 6.15},
	cpu.KernelReduction: {2.0, 4.0, 7.89, 2.76},
	cpu.KernelMAC:       {2.0, 3.9, 7.57, 2.57},
	cpu.KernelSPMV:      {1.8, 3.5, 5.4, 2.09},
}

// TestFig9MatchesPaperShape runs the full Fig 9 experiment at the
// reproduction scale and checks every bar lands within 20% of the
// published value.
func TestFig9MatchesPaperShape(t *testing.T) {
	res, err := RunSpec{}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		t.Logf("%-10s cores=[%.2f %.2f %.2f %.2f] snack=%.2fx (snack %d cy, cpu1 %d cy, %d instrs, %d tokens)",
			row.Kernel, row.CoreSpeedups[0], row.CoreSpeedups[1], row.CoreSpeedups[2], row.CoreSpeedups[3],
			row.SnackSpeedup, row.SnackCycles, row.CPUOneCycles, row.Instructions, row.InputTokens)
		want := paper9[row.Kernel]
		got := [4]float64{row.CoreSpeedups[1], row.CoreSpeedups[2], row.CoreSpeedups[3], row.SnackSpeedup}
		labels := [4]string{"2-core", "4-core", "8-core", "SnackNoC"}
		for i := range want {
			lo, hi := want[i]*0.8, want[i]*1.2
			if got[i] < lo || got[i] > hi {
				t.Errorf("%s %s speedup %.2f outside 20%% of paper's %.2f",
					row.Kernel, labels[i], got[i], want[i])
			}
		}
	}
	// Ordering claims: SGEMM lands between 4 and 8 cores; Reduction and
	// MAC between 2 and 4 (paper §V-B).
	sg := res.Row(cpu.KernelSGEMM)
	if !(sg.SnackSpeedup > sg.CoreSpeedups[2] && sg.SnackSpeedup < sg.CoreSpeedups[3]) {
		t.Errorf("SGEMM snack %.2f not between 4-core %.2f and 8-core %.2f",
			sg.SnackSpeedup, sg.CoreSpeedups[2], sg.CoreSpeedups[3])
	}
	for _, k := range []cpu.KernelName{cpu.KernelReduction, cpu.KernelMAC} {
		r := res.Row(k)
		if !(r.SnackSpeedup > r.CoreSpeedups[1] && r.SnackSpeedup < r.CoreSpeedups[2]) {
			t.Errorf("%s snack %.2f not between 2-core %.2f and 4-core %.2f",
				k, r.SnackSpeedup, r.CoreSpeedups[1], r.CoreSpeedups[2])
		}
	}
}
