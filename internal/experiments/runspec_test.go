package experiments

import (
	"bytes"
	"sync"
	"testing"

	"snacknoc/internal/cpu"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// TestRunSpecsConcurrent: a RunSpec carries everything that decides how
// a run executes, so two specs run side by side in one process each
// render exactly what they render alone. A attributes a serial Fig 2;
// B runs a Fig 12, its legs memoized, on two workers. It does not skip
// under -short, so ci.sh's race pass drives both at once.
func TestRunSpecsConcurrent(t *testing.T) {
	kernels := []cpu.KernelName{cpu.KernelMAC, cpu.KernelReduction}
	runA := func() (fig, snaps []byte) {
		obs := &Observer{Metrics: true, Attrib: true}
		res, err := RunSpec{Workers: 1, Obs: obs}.RunFig2(Scale(0.01))
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		var f, s bytes.Buffer
		RenderFig2(&f, res)
		if err := stats.WriteSnapshotsJSON(&s, obs.Snapshots()); err != nil {
			t.Error(err)
		}
		return f.Bytes(), s.Bytes()
	}
	runB := func() []byte {
		res, err := RunSpec{Workers: 2}.RunFig12([]*traffic.Profile{traffic.FMM()},
			kernels, DefaultKernelDims(), Scale(0.02), []bool{true})
		if err != nil {
			t.Error(err)
			return nil
		}
		var f bytes.Buffer
		RenderFig12(&f, res, kernels)
		return f.Bytes()
	}

	aloneFig, aloneSnaps := runA()
	aloneB := runB()
	if t.Failed() {
		t.FailNow()
	}
	var fig, snaps, b []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); fig, snaps = runA() }()
	go func() { defer wg.Done(); b = runB() }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if !bytes.Equal(fig, aloneFig) {
		t.Errorf("A's Fig 2 run beside B diverged from A alone:\n%s\nalone:\n%s", fig, aloneFig)
	}
	if !bytes.Equal(snaps, aloneSnaps) {
		t.Error("A's metrics snapshots run beside B diverged from A alone")
	}
	if !bytes.Equal(b, aloneB) {
		t.Errorf("B's Fig 12 run beside A diverged from B alone:\n%s\nalone:\n%s", b, aloneB)
	}
	if !bytes.Contains(aloneSnaps, []byte("attrib.")) {
		t.Error("A's snapshots carry no attribution counters")
	}
}

// TestBenchShims drives the package-level names the repository
// benchmark still calls: each reads or writes the package-default
// RunSpec, and the runners they front run under it. SetWarmSweeps and
// SetShards change nothing.
func TestBenchShims(t *testing.T) {
	t.Cleanup(func() {
		SetWorkers(0)
		DisableObservability()
	})
	SetWorkers(1)
	before := benchRun
	SetWarmSweeps(true)
	SetShards(2)
	if benchRun != before {
		t.Fatalf("default spec %+v after SetWarmSweeps and SetShards, want %+v", benchRun, before)
	}
	EnableAttribution(0)
	EnableMetrics()
	if benchRun.Workers != 1 {
		t.Fatalf("default spec %+v after the setters, want 1 worker", benchRun)
	}
	if !AttribEnabled() || !MetricsEnabled() || TraceCollector() != nil || ObserveRecorder() == nil {
		t.Fatal("EnableAttribution and EnableMetrics did not switch the default Observer")
	}
	cfg := dseTestConfig()
	if _, err := RunDSE(cfg); err != nil {
		t.Fatal(err)
	}
	snaps := MetricsSnapshots()
	if len(snaps) != 1 || snaps[0].Label != "dse/pool" {
		t.Fatalf("RunDSE recorded %d snapshots, want the dse/pool one", len(snaps))
	}
	RecordSnapshot(stats.Snapshot{Label: "a/extra"})
	if got := MetricsSnapshots(); len(got) != 2 || got[0].Label != "a/extra" {
		t.Fatalf("RecordSnapshot: snapshots %v, want a/extra sorted first", got)
	}
	EnableMetrics()
	if n := len(MetricsSnapshots()); n != 0 {
		t.Fatalf("EnableMetrics kept %d snapshots, want them dropped", n)
	}
	DisableObservability()
	if AttribEnabled() || MetricsEnabled() || ObserveRecorder() != nil || MetricsSnapshots() != nil {
		t.Fatal("DisableObservability left the default Observer on")
	}
}
