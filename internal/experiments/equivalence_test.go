package experiments

import (
	"bytes"
	"os"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/traffic"
)

// These tests pin the simulator's end-to-end determinism: regenerating a
// figure must reproduce the committed results/ artifact byte for byte.
// Any scheduler, allocator, or statistics change that alters arbitration
// order or observation counts — however slightly — fails here before it
// can silently shift the paper's numbers.

func compareArtifact(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		line := 1
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		i := 0
		for ; i < n && got[i] == want[i]; i++ {
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("%s: regenerated output diverges at byte %d (line %d); lengths %d vs %d",
			path, i, line, len(got), len(want))
	}
}

func TestFig2RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig2 regeneration takes tens of seconds")
	}
	res, err := RunSpec{}.RunFig2(Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig2(&buf, res)
	compareArtifact(t, "../../results/fig2.txt", buf.Bytes())
}

func TestFig9RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig9 regeneration runs every kernel on four core counts")
	}
	res, err := RunSpec{}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, res)
	compareArtifact(t, "../../results/fig9.txt", buf.Bytes())
}

func TestTablesRegenerationByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	RenderTableI(&buf, TableI())
	compareArtifact(t, "../../results/tableI.txt", buf.Bytes())
	buf.Reset()
	RenderTableII(&buf, TableII())
	compareArtifact(t, "../../results/tableII.txt", buf.Bytes())
	buf.Reset()
	RenderTableV(&buf, TableV())
	compareArtifact(t, "../../results/tableV.txt", buf.Bytes())
}

func TestFig10RegenerationByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	RenderFig10(&buf, Fig10())
	compareArtifact(t, "../../results/fig10.txt", buf.Bytes())
}

func TestFig3RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig3 regeneration simulates Raytrace end to end")
	}
	res, err := RunSpec{}.RunFig3(Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig3(&buf, res)
	compareArtifact(t, "../../results/fig3.txt", buf.Bytes())
}

func TestFig1RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale fig1 regeneration sweeps 16 benchmarks x 8 NoC variants")
	}
	res, err := RunSpec{}.RunFig1(traffic.All(), Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig1(&buf, res)
	compareArtifact(t, "../../results/fig1.txt", buf.Bytes())
}

func TestFig11RegenerationByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig11 regeneration runs the three-leg co-run experiment")
	}
	res, err := RunSpec{}.RunCoRun(CoRunSpec{
		Bench: traffic.LULESH(), Kernel: cpu.KernelSPMV,
		Dims: DefaultKernelDims(), Width: 4, Height: 4,
		Priority: true, Scale: Scale(1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig11(&buf, res)
	compareArtifact(t, "../../results/fig11.txt", buf.Bytes())
}

// The fig12/fig13 regenerations sweep every benchmark against every
// kernel (or mesh size) and take minutes each; they only run when
// SNACKNOC_EQUIV_HEAVY=1 so the tier-1 `go test ./...` pass stays well
// under its timeout. EXPERIMENTS.md lists the full-equivalence command.

func TestFig12RegenerationByteIdentical(t *testing.T) {
	if os.Getenv("SNACKNOC_EQUIV_HEAVY") != "1" {
		t.Skip("set SNACKNOC_EQUIV_HEAVY=1 to run the fig12 full regeneration")
	}
	kernels := cpu.Kernels()
	res, err := RunSpec{}.RunFig12(traffic.All(), kernels, DefaultKernelDims(), Scale(1.0), []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig12(&buf, res, kernels)
	compareArtifact(t, "../../results/fig12.txt", buf.Bytes())
}

// TestWarmSweepByteIdentical pins the warm-sweep guarantee: a sweep run
// with checkpoint-forked baselines, memoized zero-load legs, and cached
// compiles renders byte-identically to the same sweep run cold. Its one
// leg keeps the name it had when a sweep could also run on sharded
// engines (0 meant one engine).
func TestWarmSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("warm equivalence renders a reduced fig12 sweep twice")
	}
	benches := []*traffic.Profile{traffic.LULESH(), traffic.FMM()}
	kernels := []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	render := func(t *testing.T, run RunSpec) []byte {
		res, err := run.RunFig12(benches, kernels, DefaultKernelDims(), Scale(0.05), []bool{false, true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		RenderFig12(&buf, res, kernels)
		return buf.Bytes()
	}
	t.Run("shards=0", func(t *testing.T) {
		cold := render(t, RunSpec{})
		warm := render(t, RunSpec{Warm: true})
		if !bytes.Equal(cold, warm) {
			t.Fatalf("warm sweep diverged from cold sweep:\ncold:\n%s\nwarm:\n%s", cold, warm)
		}
	})
}

func TestFig13RegenerationByteIdentical(t *testing.T) {
	if os.Getenv("SNACKNOC_EQUIV_HEAVY") != "1" {
		t.Skip("set SNACKNOC_EQUIV_HEAVY=1 to run the fig13 full regeneration")
	}
	res, err := RunSpec{}.RunFig13(traffic.All(), DefaultKernelDims(), Scale(1.0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderFig13(&buf, res, traffic.All())
	compareArtifact(t, "../../results/fig13.txt", buf.Bytes())
}
