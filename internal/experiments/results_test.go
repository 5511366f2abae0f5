package experiments

import (
	"slices"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/stats"
)

func TestFig1ResultHelpers(t *testing.T) {
	r := &Fig1Result{
		Variants: []string{"A", "B"},
		Rows: []Fig1Row{
			{Benchmark: "x", SlowdownPct: []float64{1, 10}},
			{Benchmark: "y", SlowdownPct: []float64{3, 20}},
		},
	}
	if got := r.MaxSlowdown("B"); got != 20 {
		t.Fatalf("MaxSlowdown(B) = %v", got)
	}
	if got := r.MeanSlowdown("A"); got != 2 {
		t.Fatalf("MeanSlowdown(A) = %v", got)
	}
	if got := r.MaxSlowdown("missing"); got != 0 {
		t.Fatalf("MaxSlowdown(missing) = %v", got)
	}
}

func TestFig12ResultHelpers(t *testing.T) {
	r := &Fig12Result{Rows: []Fig12Row{
		{Benchmark: "x", Cells: []Fig12Cell{
			{Kernel: cpu.KernelSGEMM, Priority: true, ImpactPct: 0.5, KernelSlowdownPct: 1},
			{Kernel: cpu.KernelSGEMM, Priority: false, ImpactPct: 4.0, KernelSlowdownPct: 9},
		}},
		{Benchmark: "y", Cells: []Fig12Cell{
			{Kernel: cpu.KernelMAC, Priority: true, ImpactPct: 0.9, KernelSlowdownPct: 2},
		}},
	}}
	if got := r.MaxImpact(true); got != 0.9 {
		t.Fatalf("MaxImpact(priority) = %v", got)
	}
	if got := r.MaxImpact(false); got != 4.0 {
		t.Fatalf("MaxImpact(no priority) = %v", got)
	}
	if got := r.MaxKernelSlowdown(); got != 9 {
		t.Fatalf("MaxKernelSlowdown = %v", got)
	}
}

func TestFig13ResultHelpers(t *testing.T) {
	r := &Fig13Result{Points: []Fig13Point{
		{Benchmark: "x", Nodes: 16, ImpactPct: 0.2},
		{Benchmark: "y", Nodes: 16, ImpactPct: 0.6},
		{Benchmark: "x", Nodes: 128, ImpactPct: 0.4},
	}}
	if got := r.MaxImpact(16); got != 0.6 {
		t.Fatalf("MaxImpact(16) = %v", got)
	}
	if got := r.MaxImpact(128); got != 0.4 {
		t.Fatalf("MaxImpact(128) = %v", got)
	}
	if got := r.MaxImpact(64); got != 0 {
		t.Fatalf("MaxImpact(64) = %v", got)
	}
}

func TestFig13MeshesMatchPaperSizes(t *testing.T) {
	var nodes []int
	for _, m := range Fig13Meshes() {
		nodes = append(nodes, m[0]*m[1])
	}
	want := []int{16, 32, 64, 128}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("mesh sizes %v, want %v", nodes, want)
		}
	}
}

func TestCoRunResultMath(t *testing.T) {
	r := &CoRunResult{BaselineRuntime: 1000, Runtime: 1010, ZeroLoadCycles: 100,
		KernelRuns: 2, KernelCyclesAvg: 110}
	if got := r.ImpactPct(); got != 1.0 {
		t.Fatalf("ImpactPct = %v", got)
	}
	if got := r.KernelSlowdownPct(); got != 10.0 {
		t.Fatalf("KernelSlowdownPct = %v", got)
	}
	empty := &CoRunResult{}
	if empty.ImpactPct() != 0 || empty.KernelSlowdownPct() != 0 {
		t.Fatal("empty result should report zero impact")
	}
}

func TestSeriesStatsSkipsWarmup(t *testing.T) {
	// 25% warmup at 1.0, steady state at 0.1: the median must reflect
	// steady state only.
	s := make([]float64, 100)
	for i := range s {
		if i < 25 {
			s[i] = 1.0
		} else {
			s[i] = 0.1
		}
	}
	var scratch []float64
	med, max := seriesStats(s, &scratch)
	if med != 10 {
		t.Fatalf("median %v%%, want 10 (steady state)", med)
	}
	if max != 10 {
		t.Fatalf("max %v%%, want 10 after warmup exclusion", max)
	}
	if m, _ := seriesStats(nil, &scratch); m != 0 {
		t.Fatal("empty series should be 0")
	}
}

// TestSeriesStatsReusesScratch: with a warm scratch a series' median
// allocates nothing, and the series keeps its sample order (callers hand
// it on as Fig 2a's and Fig 11's time series).
func TestSeriesStatsReusesScratch(t *testing.T) {
	s := make([]float64, 64)
	for i := range s {
		s[i] = float64(i*37%64) / 64
	}
	want := append([]float64(nil), s...)
	var scratch []float64
	seriesStats(s, &scratch)
	if n := testing.AllocsPerRun(100, func() { seriesStats(s, &scratch) }); n != 0 {
		t.Fatalf("seriesStats with a warm scratch allocates %v times per call, want 0", n)
	}
	if !slices.Equal(s, want) {
		t.Fatal("seriesStats reordered the series it summarized")
	}
}

func TestCDFSummary(t *testing.T) {
	zero, p99 := cdfSummary([]stats.CDFPoint{
		{Value: 0.05, Prob: 0.97},
		{Value: 0.10, Prob: 0.995},
		{Value: 0.15, Prob: 1.0},
	})
	if zero != 97 {
		t.Fatalf("zero bucket = %v", zero)
	}
	if p99 != 10 {
		t.Fatalf("p99 = %v, want 10", p99)
	}
}
