package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
)

func TestLayerOf(t *testing.T) {
	const root = "/src/internal/"
	cases := []struct {
		fn, file, want string
	}{
		{"snacknoc/internal/sim.(*Engine).Step", root + "sim/engine.go", "sim"},
		{"snacknoc/internal/noc.(*Router).Evaluate", root + "noc/router.go", "noc.router"},
		{"snacknoc/internal/noc.(*NI).Evaluate", root + "noc/ni.go", "noc.ni_wire"},
		{"snacknoc/internal/noc.(*Network).RestoreState", root + "noc/snapshot.go", "checkpoint"},
		{"snacknoc/internal/core.(*RCU).State", root + "core/snapshot.go", "checkpoint"},
		{"snacknoc/internal/checkpoint.(*State).Restore", root + "checkpoint/checkpoint.go", "checkpoint"},
		{"snacknoc/internal/cache.(*L1).Access", root + "cache/l1.go", "cache"},
		{"snacknoc/internal/mem.(*Controller).Evaluate", root + "mem/mem.go", "cache"},
		{"snacknoc/internal/cpu.(*Core).Evaluate", root + "cpu/core.go", "cpu"},
		{"snacknoc/internal/traffic.(*RNG).Float", root + "traffic/rng.go", "cpu"},
		{"snacknoc/internal/core.(*RCU).Evaluate", root + "core/rcu.go", "core.rcu"},
		{"snacknoc/internal/core.(*CPM).Evaluate", root + "core/cpm.go", "core.cpm"},
		{"snacknoc/internal/core.(*TokenPool).Get", root + "core/pool.go", "core.cpm"},
		{"snacknoc/internal/compiler.Compile", root + "compiler/compiler.go", "compiler"},
		{"snacknoc/internal/dataflow.(*Builder).MatMul", root + "dataflow/graph.go", "compiler"},
		{"snacknoc/internal/fixed.Q.Mul", root + "fixed/fixed.go", "compiler"},
		{"snacknoc/internal/experiments.collect", root + "experiments/runner.go", "experiments"},
		{"snacknoc/internal/power.RouterCost", root + "power/power.go", "experiments"},
		{"snacknoc/internal/stats.(*Histogram).Observe", root + "stats/stats.go", "obs"},
		{"snacknoc/internal/trace.(*Tracer).Emit", root + "trace/trace.go", "obs"},
		{"snacknoc/internal/attrib.(*Counters).Inc", root + "attrib/attrib.go", "obs"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "runtime"},
		{"runtime/internal/atomic.Xadd", "/go/src/runtime/internal/atomic/x.go", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "/go/src/internal/runtime/maps/map.go", "runtime"},
		{"sort.Slice", "/go/src/sort/slice.go", "other"},
		{"slices.SortFunc[go.shape.[]snacknoc/internal/noc.x,go.shape.int]", "/go/src/slices/sort.go", "other"},
		{"main.calibSpin", "/src/benchmark/measure.go", "other"},
		{"", "", "other"},
	}
	prof := map[frame]int64{}
	for i, c := range cases {
		f := frame{Func: c.fn, File: c.file}
		if got := layerOf(f); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
		prof[f] += int64(i+1) * 1e7
	}
	fold := foldProfile(prof)
	if len(fold) != len(layers) {
		t.Fatalf("fold has %d layers, want %d", len(fold), len(layers))
	}
	var total, sum float64
	for _, ns := range prof {
		total += float64(ns) / 1e9
	}
	for _, l := range layers {
		sum += fold[l] / total * 100
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %v%%, want 100", sum)
	}
}

// TestParseProfile folds a real CPU profile of a loop in this package:
// its time must land in "other" and the fold must cover the profile.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		calibSpin()
	}
	pprof.StopCPUProfile()
	frames, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for f, ns := range frames {
		total += ns
		if strings.HasSuffix(f.Func, "calibSpin") && strings.HasSuffix(f.File, "measure.go") {
			spin += ns
		}
	}
	if total == 0 || float64(spin) < 0.5*float64(total) {
		t.Fatalf("calibSpin has %d ns of %d profiled", spin, total)
	}
	if fold := foldProfile(frames); fold["other"] < 0.5*float64(total)/1e9 {
		t.Errorf("fold puts %v s in other, profile total %v ns", fold["other"], total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{open: -1}
	// pass 1: run [0,100] holds build [10,30] and step [40,90]; step holds eval [50,70].
	tr.spans = []span{
		{Name: "run", Pass: 1, Parent: -1, StartNs: 0, EndNs: 100e9},
		{Name: "build", Pass: 1, Parent: 0, StartNs: 10e9, EndNs: 30e9},
		{Name: "step", Pass: 1, Parent: 0, StartNs: 40e9, EndNs: 90e9},
		{Name: "eval", Pass: 1, Parent: 2, StartNs: 50e9, EndNs: 70e9},
		{Name: "build", Pass: 2, Parent: -1, StartNs: 200e9, EndNs: 205e9},
	}
	total, self := tr.totals()
	want := map[string][2]float64{"run": {100, 30}, "build": {25, 25}, "step": {50, 30}, "eval": {20, 20}}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, total[name], self[name], w[0], w[1])
		}
	}
	if n := tr.passes("build"); n != 2 {
		t.Errorf("build spans cover %d passes, want 2", n)
	}

	live := newTracer()
	endOuter := live.start("outer")
	live.start("inner")()
	endOuter()
	live.start("next")()
	if live.spans[1].Parent != 0 || live.spans[2].Parent != -1 {
		t.Errorf("parents %d %d, want 0 -1", live.spans[1].Parent, live.spans[2].Parent)
	}
	var off *tracer
	off.start("ignored")() // the untraced run records nothing and must not panic
}

func TestQuantileMatchesPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	s := summarize([]float64{64, 1, 8, 2, 32, 4, 16})
	if s.Q1 != 2 || s.Median != 8 || s.Q3 != 32 || s.Min != 1 || s.Max != 64 || s.N != 7 {
		t.Errorf("summary %+v", s)
	}
	// statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
	s = summarize([]float64{10, 20, 30, 40})
	if s.Q1 != 12.5 || s.Median != 25 || s.Q3 != 37.5 {
		t.Errorf("summary %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	mv := func(v, q1, q3, lo, hi float64) metricValue {
		return metricValue{Value: v, Samples: &summary{Median: v, Q1: q1, Q3: q3, Min: lo, Max: hi, N: 7}}
	}
	steady := func(v float64) metricValue { return mv(v, v*0.99, v*1.01, v*0.98, v*1.02) }
	cases := []struct {
		name      string
		base, cur metricValue
		want      string
	}{
		{"within bound", steady(1.0), steady(1.05), unchanged},
		{"slower beyond bound", steady(1.0), steady(1.2), regressed},
		{"faster beyond bound", steady(1.0), steady(0.8), improved},
		{"spread wider than bound", mv(1.0, 0.9, 1.1, 0.8, 1.3), steady(1.0), unresolved},
		{"wide spread but every sample better", mv(1.0, 0.9, 1.1, 0.85, 1.3), steady(0.5), improved},
		{"no base value", metricValue{}, steady(1.0), unresolved},
	}
	for _, c := range cases {
		if got := verdict(wall, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	rate := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	if got := verdict(rate, steady(1.0), steady(0.8)); got != regressed {
		t.Errorf("higher-is-better drop: %s, want %s", got, regressed)
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json to the tables in
// spec.go and workloads.go, which are what the program reports and
// -compare judges by.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
		if def.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", def.Name)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		got := b.PerLayer[i]
		if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, def)
		}
	}
	for _, l := range layers {
		found := false
		for _, def := range perLayer {
			found = found || def.Name == selfMetric(l)
		}
		if !found {
			t.Errorf("layer %s has no %s metric", l, selfMetric(l))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmokeEndToEnd runs every workload at smoke size, untraced and
// traced, and checks that each run reports exactly the metrics
// BENCHMARK.json names and fails no pass. A run fails a pass whose
// digest differs from its first pass's, and the traced run fails when
// an exact count differs between its observed passes, so a clean
// run also shows that two smoke passes agree on both.
func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmarkJSON(t)
	o := runOpts{seed: 7, smoke: true, outDir: t.TempDir()}
	for i := range workloads {
		w := &workloads[i]
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
		untraced, err := runUntraced(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traced, err := runTraced(w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for _, d := range []*runDetail{untraced, traced} {
			if d.Failed != 0 || d.Attempted < 2 {
				t.Errorf("%s traced=%v: %d of %d passes failed: %v", w.name, d.Traced, d.Failed, d.Attempted, d.Errors)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(d.resultLine()), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			want := map[string]string{}
			if d.Traced {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", w.name, d.Traced, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s: metric %s is missing from the result line", w.name, name)
				case got.Unit != unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json %q", w.name, name, got.Unit, unit)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, name, *got.Value)
				}
				if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
					t.Errorf("metric name %q or unit %q outside the allowed characters", name, unit)
				}
			}
		}
		if untraced.Digest != traced.Digest {
			t.Errorf("%s: untraced digest %s, traced %s", w.name, untraced.Digest, traced.Digest)
		}
		for _, def := range endToEnd {
			if untraced.Metrics[def.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, def.Name, untraced.Metrics[def.Name].Value)
			}
		}
		if untraced.Observers != observersOff {
			t.Errorf("%s: untraced run had %s", w.name, untraced.Observers)
		}
		if !strings.Contains(traced.Observers, "attribution=on metrics=on") {
			t.Errorf("%s: traced run had %s", w.name, traced.Observers)
		}
		var profiled float64
		for _, l := range layers {
			profiled += traced.Metrics[selfMetric(l)].Value
		}
		if profiled <= 0 {
			t.Errorf("%s: the CPU profile folded to nothing", w.name)
		}
		if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no span trace written: %v", w.name, err)
		}
	}
	if experiments.AttribEnabled() || experiments.MetricsEnabled() {
		t.Error("a traced run left observability on")
	}
}

// TestDigestsTiedToGoldens ties the pinned digests to results the
// repository already pins, so they are not only equal to themselves:
// the first round of kernels_zero_load is Fig 9, whose cycle and
// instruction counts results/fig9.txt records, and dse_fork_sweep's
// statistics must not depend on pooling.
func TestDigestsTiedToGoldens(t *testing.T) {
	golden, err := os.ReadFile("../results/fig9.txt")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`(?m)^(\w+)\s.*\s([\d.]+)\s+\((\d+) / (\d+)\)$`)
	rows := row.FindAllStringSubmatch(string(golden), -1)
	if len(rows) != len(cpu.Kernels()) {
		t.Fatalf("results/fig9.txt has %d kernel rows, want %d", len(rows), len(cpu.Kernels()))
	}
	_, dims := kernelSize(false)
	experiments.ResetCompileCache()
	for _, r := range rows {
		k := cpu.KernelName(r[1])
		prog, res, err := runKernel(passEnv{}, k, dims, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		cycles, _ := strconv.ParseInt(r[3], 10, 64)
		instrs, _ := strconv.Atoi(r[4])
		if res.Cycles() != cycles || prog.Instructions() != instrs {
			t.Errorf("%s: %d cycles / %d instructions, results/fig9.txt has %d / %d", k, res.Cycles(), prog.Instructions(), cycles, instrs)
		}
		one := cpu.CPUKernelCycles(k, dims.CPUDims(k), 1, cpu.DefaultCPUConfig())
		if got := strconv.FormatFloat(float64(one)/float64(res.Cycles()), 'f', 2, 64); got != r[2] {
			t.Errorf("%s: speedup %s, results/fig9.txt has %s", k, got, r[2])
		}
	}

	cfg := dseConfig(true)
	digest := func(depth int) string {
		cfg.PoolDepth = depth
		r, err := experiments.RunDSE(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := newPassOut()
		dseStats(out, r)
		return out.digest()
	}
	if pooled, cold := digest(0), digest(-1); pooled != cold {
		t.Errorf("DSE statistics depend on pooling: %s pooled, %s with PoolDepth -1", pooled, cold)
	}
}

// TestPinnedDigests checks that every workload has a recorded digest.
func TestPinnedDigests(t *testing.T) {
	for _, w := range workloads {
		d, err := pinnedDigest(w.name)
		if err != nil || len(d) != 32 {
			t.Errorf("%s: digest %q, %v", w.name, d, err)
		}
	}
}
