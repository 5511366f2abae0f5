package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snacknoc/internal/attrib"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/trace"
	"snacknoc/internal/traffic"
)

// TestAttribByteIdentityFig2 pins the attribution layer's
// non-interference contract on the traffic path: a fig2 sweep with
// attribution (and interval sampling) enabled renders byte-identically
// to the plain run. Counters only observe cycles, never perturb them.
func TestAttribByteIdentityFig2(t *testing.T) {
	res, err := RunSpec{}.RunFig2(Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	RenderFig2(&plain, res)

	obs := &Observer{Attrib: true, AttribInterval: 5000}
	res, err = RunSpec{Obs: obs}.RunFig2(Scale(0.1))
	if err != nil {
		t.Fatal(err)
	}
	var attributed bytes.Buffer
	RenderFig2(&attributed, res)

	if !bytes.Equal(plain.Bytes(), attributed.Bytes()) {
		t.Fatalf("fig2 output diverges under -attrib:\nplain:\n%s\nattributed:\n%s",
			plain.String(), attributed.String())
	}
	sums := attribSummaries(obs)
	if len(sums) != len(Fig2Benchmarks()) {
		t.Fatalf("got %d attribution summaries, want %d", len(sums), len(Fig2Benchmarks()))
	}
}

// TestAttribByteIdentityCompute pins the same contract on the compute
// path (fig9's RCU/CPM kernels), and checks the kernel runs produce
// summaries with a CPM verdict — fig9's cells are zero-load.
func TestAttribByteIdentityCompute(t *testing.T) {
	res, err := RunSpec{}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	RenderFig9(&plain, res)

	obs := &Observer{Attrib: true}
	res, err = RunSpec{Obs: obs}.RunFig9(DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		t.Fatal(err)
	}
	var attributed bytes.Buffer
	RenderFig9(&attributed, res)

	if !bytes.Equal(plain.Bytes(), attributed.Bytes()) {
		t.Fatalf("fig9 output diverges under -attrib:\nplain:\n%s\nattributed:\n%s",
			plain.String(), attributed.String())
	}
	if len(attribSummaries(obs)) == 0 {
		t.Fatal("attributed fig9 produced no summaries")
	}
}

// TestAttribIntervalSampling drives the windowed-sampling path end to
// end on one benchmark run: interval deltas land in the metrics
// snapshot as attrib.series.* time series, counter samples land in the
// trace JSON as validating "C"-phase tracks, and the deliberately tiny
// trace ring surfaces its overflow both as the trace.dropped metric and
// through the dump's marker (the snackscope check-trace warning path).
func TestAttribIntervalSampling(t *testing.T) {
	run := func(t *testing.T, ringLimit int) (map[string]float64, []byte) {
		t.Helper()
		obs := &Observer{Trace: trace.NewCollector(ringLimit), Attrib: true, AttribInterval: 2000}
		if _, err := (RunSpec{Obs: obs}).RunBenchmark(noc.DAPPER(4, 4), traffic.LULESH(), Scale(0.05)); err != nil {
			t.Fatal(err)
		}
		snaps := obs.Snapshots()
		if len(snaps) != 1 {
			t.Fatalf("got %d snapshots, want 1", len(snaps))
		}
		var buf bytes.Buffer
		if err := obs.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := trace.Validate(buf.Bytes()); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		return snaps[0].Values, buf.Bytes()
	}

	// Unbounded ring: interval deltas land in the snapshot as
	// attrib.series.* and in the trace as counter tracks.
	v, dump := run(t, 0)
	sampled := false
	for k, val := range v {
		if strings.HasPrefix(k, "attrib.series.") && strings.HasSuffix(k, ".samples") && val > 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		t.Fatal("no attrib.series.* samples in the snapshot")
	}
	if !bytes.Contains(dump, []byte(`"ph":"C"`)) {
		t.Fatal("trace JSON carries no counter samples")
	}
	if d := v["trace.dropped"]; d != 0 {
		t.Fatalf("unbounded ring dropped %v events", d)
	}

	// A ring far too small for the run: the overflow surfaces as the
	// trace.dropped metric and through the dump's marker (the
	// snackscope check-trace warning path).
	v, dump = run(t, 256)
	dropped, ok := v["trace.dropped"]
	if !ok || dropped <= 0 {
		t.Fatalf("trace.dropped = %v, %v; want a positive overflow count", dropped, ok)
	}
	if got := trace.DroppedFromJSON(dump); got != int64(dropped) {
		t.Fatalf("DroppedFromJSON = %d, metric says %v", got, dropped)
	}
}

// runAttributedKernel runs one zero-load standalone kernel on a mesh cut
// into shards with attribution on, as cmd/snackscope -kernel does, and
// returns its snapshot's values plus the engine's final cycle.
func runAttributedKernel(t *testing.T, k cpu.KernelName, dims KernelDims, shards int) (map[string]float64, int64) {
	t.Helper()
	prog, err := CompileKernel(k, dims, 16, Seed)
	if err != nil {
		t.Fatal(err)
	}
	run := RunSpec{Shards: shards, Obs: &Observer{Attrib: true}}
	_, plat, err := run.RunKernel("kernel", prog, 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	return run.Obs.Snapshots()[0].Values, plat.Eng.Cycle()
}

// TestAttribSumsToCycles is the acceptance-criteria invariant: every
// per-cycle component's reasons sum to the total simulated cycles, on
// both the serial and the sharded kernel.
func TestAttribSumsToCycles(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			values, cycles := runAttributedKernel(t, cpu.KernelSGEMM, DefaultKernelDims(), shards)
			if cycles <= 0 {
				t.Fatal("no simulated cycles")
			}
			if err := attrib.CheckTotals(values, cycles); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScopeSGEMMGolden pins cmd/snackscope's SGEMM report against the
// committed artifact, verdict included — the known zero-load behavior
// is CPM-issue-bound (the CPM's one-entry-per-cycle issue port is the
// limiter, not the mesh).
func TestScopeSGEMMGolden(t *testing.T) {
	values, cycles := runAttributedKernel(t, cpu.KernelSGEMM, DefaultKernelDims(), 0)
	if err := attrib.CheckTotals(values, cycles); err != nil {
		t.Fatal(err)
	}
	sum := attrib.Summarize(values)
	if sum.Verdict != "cpm-issue-bound" {
		t.Fatalf("SGEMM verdict %q, want cpm-issue-bound", sum.Verdict)
	}
	got := sum.RenderString("kernel/SGEMM@4x4 dims=default")
	compareArtifact(t, "../../results/scope-sgemm.txt", []byte(got))
}

// labelledSummary is one attributed run's folded bottleneck summary.
type labelledSummary struct {
	label string
	sum   *attrib.Summary
}

// attribSummaries folds every snapshot obs collected that carries
// attribution counters, in label order: the reports the commands print
// after an attributed run.
func attribSummaries(obs *Observer) []labelledSummary {
	var out []labelledSummary
	for _, s := range obs.Snapshots() {
		if sum := attrib.Summarize(s.Values); len(sum.Layers) > 0 {
			out = append(out, labelledSummary{s.Label, sum})
		}
	}
	return out
}

// attribDigest renders every summary obs collected, optionally dropping
// the engine layer (its per-shard split legitimately depends on -shards;
// everything else must not).
func attribDigest(t *testing.T, obs *Observer, dropEngine bool) string {
	t.Helper()
	var b strings.Builder
	for _, s := range attribSummaries(obs) {
		text := s.sum.RenderString(s.label)
		if dropEngine {
			var kept []string
			for _, line := range strings.Split(text, "\n") {
				if strings.Contains(line, "engine") {
					continue
				}
				kept = append(kept, line)
			}
			text = strings.Join(kept, "\n")
		}
		b.WriteString(text)
	}
	return b.String()
}

// TestAttribDeterminismAcrossScheduling pins counter determinism over
// every execution strategy the sweep runners offer: worker count, warm
// (checkpoint-forked) vs cold sweeps, and shard count. Warm sweeps fall
// back to cold while a spec observes (newWarmMemo), so the warm run must
// match exactly; sharding may only re-split the engine layer.
func TestAttribDeterminismAcrossScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced fig12 sweep four times")
	}
	benches := []*traffic.Profile{traffic.LULESH()}
	kernels := []cpu.KernelName{cpu.KernelMAC}
	sweep := func(t *testing.T, run RunSpec) *Observer {
		t.Helper()
		run.Obs = &Observer{Attrib: true}
		if _, err := run.RunFig12(benches, kernels, DefaultKernelDims(), Scale(0.05), []bool{true}); err != nil {
			t.Fatal(err)
		}
		return run.Obs
	}

	serial := sweep(t, RunSpec{Workers: 1})
	want := attribDigest(t, serial, false)
	wantNoEngine := attribDigest(t, serial, true)
	if want == "" {
		t.Fatal("baseline sweep collected no attribution summaries")
	}
	if got := attribDigest(t, sweep(t, RunSpec{Workers: 4}), false); got != want {
		t.Fatal("-j 4 attribution diverged from -j 1")
	}
	if got := attribDigest(t, sweep(t, RunSpec{Workers: 4, Warm: true}), false); got != want {
		t.Fatal("warm-sweep attribution diverged from cold")
	}
	if got := attribDigest(t, sweep(t, RunSpec{Workers: 1, Shards: 2}), true); got != wantNoEngine {
		t.Fatal("-shards 2 attribution diverged outside the engine layer")
	}
}

// TestDSEAttribVerdicts pins the per-cell verdict column: with
// attribution on, every zero-load DSE cell is CPM-issue-bound, the
// rendered report grows a verdict column, and the report stays
// byte-identical across workers and with pooled forking disabled
// (counters rewind with the checkpoint, fold before release).
func TestDSEAttribVerdicts(t *testing.T) {
	cfg := dseTestConfig()
	render := func(t *testing.T, workers int) []byte {
		t.Helper()
		res, err := RunSpec{Workers: workers, Obs: &Observer{Attrib: true}}.RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cells {
			if c.Verdict != "cpm-issue-bound" {
				t.Fatalf("cell buf=%d chan=%d vc=%d verdict %q, want cpm-issue-bound",
					c.BufDepth, c.ChanWidth, c.VCs, c.Verdict)
			}
		}
		var buf bytes.Buffer
		RenderDSE(&buf, res)
		return buf.Bytes()
	}
	want := render(t, 1)
	if !bytes.Contains(want, []byte("verdict")) {
		t.Fatal("attributed DSE report lacks the verdict column")
	}

	if got := render(t, 4); !bytes.Equal(got, want) {
		t.Fatal("-j 4 attributed DSE report diverged")
	}
	cfg.PoolDepth = -1
	if got := render(t, 4); !bytes.Equal(got, want) {
		t.Fatal("pool-disabled attributed DSE report diverged")
	}

	// Without attribution the column must not appear — the committed
	// dse-smoke.txt golden is unchanged by it.
	res, err := RunSpec{}.RunDSE(dseTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderDSE(&buf, res)
	if bytes.Contains(buf.Bytes(), []byte("verdict")) {
		t.Fatal("plain DSE report grew a verdict column")
	}
}
