package experiments

import (
	"bytes"
	"sort"
	"testing"

	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/trace"
	"snacknoc/internal/traffic"
)

// TestTraceDisabledByteIdentity pins the tracer's non-interference
// contract: running an experiment with tracing and metrics collection
// enabled must render byte-identical results to the plain run. Tracing
// only observes flits, it never perturbs arbitration, timing, or
// statistics.
func TestTraceDisabledByteIdentity(t *testing.T) {
	res, err := RunSpec{}.RunFig2(Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	RenderFig2(&plain, res)

	obs := &Observer{Trace: trace.NewCollector(1024), Metrics: true}
	res, err = RunSpec{Obs: obs}.RunFig2(Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var traced bytes.Buffer
	RenderFig2(&traced, res)

	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Fatalf("fig2 output diverges when traced:\nplain:\n%s\ntraced:\n%s",
			plain.String(), traced.String())
	}
	if obs.Trace.Events() == 0 {
		t.Fatal("traced run recorded no events")
	}
	if n := len(obs.Snapshots()); n != len(Fig2Benchmarks()) {
		t.Fatalf("got %d metrics snapshots, want %d", n, len(Fig2Benchmarks()))
	}
}

// TestTraceDisabledByteIdentityCompute pins the same non-interference
// contract on the compute path: the fig9 kernel runs exercise the
// RCU/CPM tracers, which must not perturb kernel timing either.
func TestTraceDisabledByteIdentityCompute(t *testing.T) {
	res, err := RunSpec{}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	RenderFig9(&plain, res)

	obs := &Observer{Trace: trace.NewCollector(1024), Metrics: true}
	res, err = RunSpec{Obs: obs}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var traced bytes.Buffer
	RenderFig9(&traced, res)

	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Fatalf("fig9 output diverges when traced:\nplain:\n%s\ntraced:\n%s",
			plain.String(), traced.String())
	}
	if obs.Trace.Events() == 0 {
		t.Fatal("traced kernel runs recorded no events")
	}
}

// TestObserveOffAllocatesNothing pins the disabled path every runner
// takes once per simulation: with no Observer, Observe attaches nothing
// to a platform-less CMP stack or to a standalone platform's stack, and
// Record returns without building a registry, so neither allocates.
func TestObserveOffAllocatesNothing(t *testing.T) {
	cmp, err := RunSpec{}.newCMPStack(noc.DAPPER(4, 4), traffic.FMM(), Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		st   stack
	}{
		{"cmp", cmp},
		{"platform", stack{Eng: eng, Net: plat.Net, Plat: plat}},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			RunSpec{}.Observe(tc.name, tc.st).Record()
		})
		if allocs != 0 {
			t.Errorf("%s stack: Observe+Record with observability off made %v allocations, want 0", tc.name, allocs)
		}
	}
}

// TestCompileCacheHitsAcrossCells pins the compiled-program cache: the
// second co-run of the same (kernel, dims, mesh, seed) cell compiles
// nothing.
func TestCompileCacheHitsAcrossCells(t *testing.T) {
	ResetCompileCache()
	spec := CoRunSpec{
		Bench: traffic.FMM(), Kernel: cpu.KernelReduction,
		Dims: DefaultKernelDims(), Width: 4, Height: 4,
		Priority: true, Scale: Scale(0.02),
	}
	for i := 0; i < 2; i++ {
		if _, err := (RunSpec{}).RunCoRun(spec); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := CompileCacheStats()
	if misses != 1 {
		t.Fatalf("got %d compile misses across two identical cells, want exactly 1", misses)
	}
	if hits < 1 {
		t.Fatalf("got %d compile-cache hits, want at least 1", hits)
	}
}

// TestTracedParallelSweep runs a traced, metrics-collecting sweep on four
// workers — the configuration ci.sh exercises under the race detector —
// and checks the collected observability output is complete, valid, and
// deterministic in shape.
func TestTracedParallelSweep(t *testing.T) {
	obs := &Observer{Trace: trace.NewCollector(4096), Metrics: true}
	res, err := RunSpec{Workers: 4, Obs: obs}.RunFig2(Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(Fig2Benchmarks()) {
		t.Fatalf("got %d runs, want %d", len(res.Runs), len(Fig2Benchmarks()))
	}

	c := obs.Trace
	if c.Events() == 0 {
		t.Fatal("sweep recorded no trace events")
	}
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("sweep trace JSON invalid: %v", err)
	}

	snaps := obs.Snapshots()
	if len(snaps) != len(Fig2Benchmarks()) {
		t.Fatalf("got %d metrics snapshots, want %d", len(snaps), len(Fig2Benchmarks()))
	}
	if !sort.SliceIsSorted(snaps, func(i, j int) bool { return snaps[i].Label < snaps[j].Label }) {
		t.Fatal("metrics snapshots not sorted by label")
	}
	for _, s := range snaps {
		if s.Values["net.packets.injected"] <= 0 {
			t.Fatalf("%s: no injected packets in snapshot", s.Label)
		}
		// A few packets may still be in flight when the workload's last
		// core finishes, so ejected trails injected but never exceeds it.
		if s.Values["net.packets.ejected"] > s.Values["net.packets.injected"] {
			t.Fatalf("%s: ejected %v exceeds injected %v", s.Label,
				s.Values["net.packets.ejected"], s.Values["net.packets.injected"])
		}
	}
}
