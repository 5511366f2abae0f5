package experiments

import (
	"reflect"
	"strings"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/traffic"
)

func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	want := []TableIRow{
		{"DAPPER", 4, 16, 5, 4},
		{"AxNoC", 3, 16, 4, 4},
		{"BiNoCHS", 2, 32, 4, 4},
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
}

func TestTableIIStructure(t *testing.T) {
	res := TableII()
	if len(res.CPMUnits) != 5 || len(res.RCUUnits) != 7 {
		t.Fatalf("unit counts %d/%d, want 5/7", len(res.CPMUnits), len(res.RCUUnits))
	}
	if len(res.Totals) != 5 {
		t.Fatalf("total rows %d, want 5", len(res.Totals))
	}
	if res.Totals[0].PowerW >= res.Totals[4].PowerW {
		t.Fatal("totals not increasing with RCU count")
	}
}

func TestTableVRatios(t *testing.T) {
	res := TableV()
	if res.CPU.PowerW/res.Snack.PowerW < 500 {
		t.Fatalf("power ratio %v too small", res.CPU.PowerW/res.Snack.PowerW)
	}
}

func TestFig10SnackShareSmall(t *testing.T) {
	res := Fig10()
	if res.PowerPct[1] > 2.5 || res.AreaPct[1] > 2.0 {
		t.Fatalf("snack uncore shares %.2f%%/%.2f%% exceed the paper's ~1.6%%/1.1%% region",
			res.PowerPct[1], res.AreaPct[1])
	}
}

func TestFig1SmallSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 subset skipped in -short")
	}
	res, err := RunFig1([]*traffic.Profile{traffic.FMM()}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].SlowdownPct) != 8 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	// Severe width reduction must hurt more than the unmodified AxNoC.
	width4 := res.MaxSlowdown("AxNoC Channel Width / 4")
	ax := res.MaxSlowdown("AxNoC")
	if width4 <= ax {
		t.Errorf("width/4 slowdown %.2f%% not above AxNoC %.2f%%", width4, ax)
	}
}

func TestFig2QuartilesOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 skipped in -short")
	}
	res, err := RunFig2(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("got %d runs", len(res.Runs))
	}
	// The quartile selection must order: FMM/Cholesky low, LULESH
	// medium-high, Graph500 high.
	byName := map[string]*BenchRun{}
	for _, r := range res.Runs {
		byName[r.Benchmark] = r
	}
	if byName["FMM"].XbarMedianPct >= byName["LULESH"].XbarMedianPct {
		t.Errorf("FMM (%v%%) not below LULESH (%v%%)",
			byName["FMM"].XbarMedianPct, byName["LULESH"].XbarMedianPct)
	}
	if byName["Cholesky"].XbarMedianPct >= byName["LULESH"].XbarMedianPct {
		t.Errorf("Cholesky (%v%%) not below LULESH (%v%%)",
			byName["Cholesky"].XbarMedianPct, byName["LULESH"].XbarMedianPct)
	}
	if byName["LULESH"].XbarMedianPct >= byName["Graph500"].XbarMedianPct {
		t.Errorf("LULESH (%v%%) not below Graph500 (%v%%)",
			byName["LULESH"].XbarMedianPct, byName["Graph500"].XbarMedianPct)
	}
	// Link utilization sits well below crossbar utilization (§II-A).
	for _, r := range res.Runs {
		if r.LinkMedianPct > r.XbarMedianPct {
			t.Errorf("%s: link median %v%% above crossbar median %v%%",
				r.Benchmark, r.LinkMedianPct, r.XbarMedianPct)
		}
	}
}

func TestFig3RaytraceBuffersMostlyEmpty(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 skipped in -short")
	}
	res, err := RunFig3(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.ZeroOccupancyPct < 90 {
		t.Errorf("zero-occupancy %.2f%%, paper reports ~96%%", res.ZeroOccupancyPct)
	}
	if res.P99OccupancyPct > 20 {
		t.Errorf("p99 occupancy %.2f%% of capacity, paper reports contention <=10%%", res.P99OccupancyPct)
	}
}

func TestKernelDimsHelpers(t *testing.T) {
	d := DefaultKernelDims()
	if d.CPUDims(cpu.KernelSGEMM).N != d.SGEMMDim {
		t.Fatal("SGEMM dims mismatch")
	}
	if d.CPUDims(cpu.KernelSPMV).NNZ == 0 {
		t.Fatal("SPMV NNZ not derived")
	}
	p := PaperKernelDims()
	if p.SGEMMDim != 4096 || p.ReduceLen != 640_000_000 {
		t.Fatalf("paper dims wrong: %+v", p)
	}
}

// TestCommandLineShapes covers the -mesh, -dims, -kernel and -grid
// parsers the commands share: a mesh with trailing input is rejected,
// not cut short.
func TestCommandLineShapes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		w, h int // 0: an error
	}{
		{"4x4", 4, 4}, {"8X4", 8, 4}, {"16x16", 16, 16},
		{"4x4x9", 0, 0}, {"4x4 ", 0, 0}, {"4x", 0, 0}, {"x4", 0, 0}, {"4", 0, 0},
		{"1x4", 0, 0}, {"4x1", 0, 0}, {"", 0, 0}, {"axb", 0, 0},
	} {
		w, h, err := ParseMesh(tc.in)
		if w != tc.w || h != tc.h || (err == nil) != (tc.w != 0) {
			t.Errorf("ParseMesh(%q) = %d, %d, %v; want %d, %d", tc.in, w, h, err, tc.w, tc.h)
		}
	}
	for _, tc := range []struct {
		name string
		want KernelDims
		ok   bool
	}{
		{"default", DefaultKernelDims(), true},
		{"paper", PaperKernelDims(), true},
		{"smoke", DSESmokeDims(), true},
		{"Smoke", KernelDims{}, false},
		{"", KernelDims{}, false},
	} {
		got, err := KernelDimsByName(tc.name)
		if got != tc.want || (err == nil) != tc.ok {
			t.Errorf("KernelDimsByName(%q) = %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}
	// Kernel names resolve in any letter case, the same in every command.
	for _, tc := range []struct {
		name string
		want cpu.KernelName // "": an error
	}{
		{"SGEMM", cpu.KernelSGEMM}, {"sgemm", cpu.KernelSGEMM}, {"reduction", cpu.KernelReduction},
		{"Mac", cpu.KernelMAC}, {"spmv", cpu.KernelSPMV}, {"gemm", ""}, {"", ""},
	} {
		got, err := KernelByName(tc.name)
		if got != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("KernelByName(%q) = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	// A -grid axis left out keeps its default; one named twice, an unknown
	// axis or a non-positive value is an error, not a silent last-wins, and
	// a value repeated within an axis is an error, not a duplicated cell.
	def := DefaultDSEAxes()
	for _, tc := range []struct {
		in   string
		want *DSEAxes // nil: an error
	}{
		{"buf=1,2:chan=16:vc=2,4:rcu=16,32", &DSEAxes{[]int{1, 2}, []int{16}, []int{2, 4}, []int{16, 32}}},
		{"rcu=32", &DSEAxes{def.BufDepths, def.ChanWidths, def.VCCounts, []int{32}}},
		{"buf=2:buf=4", nil}, {"buf=2:vc=2:buf=2", nil}, {"bufs=2", nil},
		{"buf=0", nil}, {"buf=1,x", nil}, {"buf", nil}, {"", nil},
		{"buf=2,2", nil}, {"chan=16,32,16", nil},
		{"buf=2:chan=16:vc=1:rcu=16", &DSEAxes{[]int{2}, []int{16}, []int{1}, []int{16}}},
	} {
		got, err := ParseGrid(tc.in)
		if (err == nil) != (tc.want != nil) || (tc.want != nil && !reflect.DeepEqual(got, *tc.want)) {
			t.Errorf("ParseGrid(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	// One VC per vnet is a well-formed grid, but its CPM's router can never
	// offer the free VCs the ALO threshold asks for: the sweep fails when it
	// builds the cell's platform, not at the cycle cap.
	axes, err := ParseGrid("buf=2:chan=16:vc=1:rcu=16")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DSEConfig{Axes: axes, Kernels: []cpu.KernelName{cpu.KernelMAC}, Dims: DSESmokeDims()}
	if _, err := RunDSE(cfg); err == nil || !strings.Contains(err.Error(), "ALO threshold 6") {
		t.Errorf("RunDSE on -grid vc=1: err = %v, want the ALO threshold rejection", err)
	}
}

func TestBuildKernelGraphsEvaluate(t *testing.T) {
	dims := KernelDims{SGEMMDim: 6, ReduceLen: 40, MACLen: 40, SPMVDim: 12, SPMVDensity: 0.4}
	for _, k := range cpu.Kernels() {
		g, err := BuildKernelGraph(k, dims, 1)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		vals := g.Eval()
		if len(vals) == 0 {
			t.Fatalf("%s: empty evaluation", k)
		}
		// Same seed reproduces the same graph data.
		g2, _ := BuildKernelGraph(k, dims, 1)
		v2 := g2.Eval()
		for i := range vals {
			if vals[i] != v2[i] {
				t.Fatalf("%s: non-deterministic kernel data", k)
			}
		}
	}
}

func TestCompileKernelProducesValidPrograms(t *testing.T) {
	dims := KernelDims{SGEMMDim: 6, ReduceLen: 40, MACLen: 40, SPMVDim: 12, SPMVDensity: 0.4}
	for _, k := range cpu.Kernels() {
		prog, err := CompileKernel(k, dims, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if prog.Name != string(k) {
			t.Errorf("%s: program named %q", k, prog.Name)
		}
	}
}

// TestRunBenchmarkRejectsMeshPastTheSharerSets: snacksim -bench on a
// 16x9 mesh reports the directory's 128-node bound as an error.
func TestRunBenchmarkRejectsMeshPastTheSharerSets(t *testing.T) {
	_, err := RunBenchmark(noc.DAPPER(16, 9), traffic.ByName("Graph500"), Scale(0.01))
	if err == nil || !strings.Contains(err.Error(), "128") {
		t.Fatalf("16x9 Graph500: err = %v, want the 128-node bound", err)
	}
}
