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

// TestLegMemoByteIdentical pins the leg memo: a reduced fig12 sweep and
// a reduced fig13 sweep, their legs 1 and 2 memoized, render the bytes
// the same sweeps render with every leg run (an Observer that observes
// nothing switches the memo off). The fig12 cells, driven one by one
// through one memo, then show each leg key ran exactly once.
func TestLegMemoByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a reduced fig12 and fig13 sweep twice each")
	}
	benches := []*traffic.Profile{traffic.LULESH(), traffic.FMM()}
	kernels := []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	pris := []bool{false, true}
	dims := DSESmokeDims()
	cold := RunSpec{Obs: &Observer{}}
	t.Run("fig12", func(t *testing.T) {
		render := func(run RunSpec) []byte {
			res, err := run.RunFig12(benches, kernels, dims, Scale(0.01), pris)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			RenderFig12(&buf, res, kernels)
			return buf.Bytes()
		}
		if got, want := render(RunSpec{}), render(cold); !bytes.Equal(got, want) {
			t.Fatalf("memoized sweep diverged from every leg run:\nmemo:\n%s\ncold:\n%s", got, want)
		}
	})
	t.Run("fig13", func(t *testing.T) {
		render := func(run RunSpec) []byte {
			res, err := run.RunFig13(benches[:1], dims, Scale(0.01))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			RenderFig13(&buf, res, benches[:1])
			return buf.Bytes()
		}
		if got, want := render(RunSpec{}), render(cold); !bytes.Equal(got, want) {
			t.Fatalf("memoized sweep diverged from every leg run:\nmemo:\n%s\ncold:\n%s", got, want)
		}
	})
	t.Run("once", func(t *testing.T) {
		run := RunSpec{Workers: 1}
		memo := run.newLegMemo()
		for _, b := range benches {
			for _, k := range kernels {
				for _, pri := range pris {
					spec := CoRunSpec{Bench: b, Kernel: k, Dims: dims, Width: 4, Height: 4, Priority: pri, Scale: 0.01}
					if _, err := run.runCoRun(spec, memo); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var bases, zeros int
		for key := range memo.legs {
			switch key.(type) {
			case baseKey:
				bases++
			case zeroKey:
				zeros++
			}
			memo.leg(key, func() (int64, error) {
				t.Errorf("leg %+v ran a second time", key)
				return 0, nil
			})
		}
		if want := len(benches) * len(pris); bases != want {
			t.Errorf("%d leg-1 keys ran, want %d", bases, want)
		}
		if want := len(kernels) * len(pris); zeros != want {
			t.Errorf("%d leg-2 keys ran, want %d", zeros, want)
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
