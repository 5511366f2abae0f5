package snacknoc_test

import (
	"math"
	"strings"
	"testing"

	"snacknoc"
)

func TestCoRunAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("co-run skipped in -short")
	}
	rep, err := snacknoc.CoRun("CoMD", snacknoc.Reduction, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "CoMD" || rep.Kernel != snacknoc.Reduction {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.KernelRuns < 1 {
		t.Fatal("no kernels completed during the benchmark")
	}
	if rep.BaselineRuntime <= 0 || rep.Runtime <= 0 {
		t.Fatalf("runtimes %d/%d", rep.BaselineRuntime, rep.Runtime)
	}
	if rep.ZeroLoadCycles <= 0 {
		t.Fatal("zero-load leg missing")
	}
	// At this scale the impact is noisy but must stay far from pathological.
	if rep.ImpactPct > 10 || rep.ImpactPct < -10 {
		t.Fatalf("impact %v%% outside any plausible band", rep.ImpactPct)
	}
}

// TestCoRunRejectsBadScale: a scale that is not positive and finite is an
// error, not a silent full-length run; 0.25 runs (TestCoRunAPI).
func TestCoRunRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if rep, err := snacknoc.CoRun("CoMD", snacknoc.Reduction, scale); err == nil || rep != nil {
			t.Errorf("CoRun at scale %g = (%v, %v), want an error", scale, rep, err)
		}
	}
}

func TestCoRunRejectsUnknownBenchmark(t *testing.T) {
	if _, err := snacknoc.CoRun("NotARealApp", snacknoc.MAC, 0.1); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarksListsAll16(t *testing.T) {
	names := snacknoc.Benchmarks()
	if len(names) != 16 {
		t.Fatalf("Benchmarks() returned %d names", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate benchmark %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"LULESH", "Radix", "Graph500", "FMM"} {
		if !seen[want] {
			t.Fatalf("missing benchmark %q", want)
		}
	}
}

// TestCoRunRejectsMeshPastTheSharerSets: the directory's sharer sets
// cover 128 nodes, so a 16x9 co-run is an error that names the bound.
func TestCoRunRejectsMeshPastTheSharerSets(t *testing.T) {
	_, err := snacknoc.CoRun("Graph500", snacknoc.MAC, 0.01, snacknoc.WithMesh(16, 9))
	if err == nil || !strings.Contains(err.Error(), "128") {
		t.Fatalf("16x9 co-run: err = %v, want the 128-node bound", err)
	}
}
