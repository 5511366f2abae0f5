package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"snacknoc/internal/experiments"
	"snacknoc/internal/stats"
)

//go:embed expected/*.digest
var expectedFS embed.FS

// pinnedDigest is the digest recorded for a workload at defaultSeed.
func pinnedDigest(workload string) (string, error) {
	b, err := expectedFS.ReadFile("expected/" + workload + ".digest")
	if err != nil {
		return "", fmt.Errorf("no pinned digest for %s: run with -update-digests", workload)
	}
	return strings.TrimSpace(string(b)), nil
}

// runOpts are the settings of one run of one workload.
type runOpts struct {
	seed    uint64
	seconds float64
	smoke   bool
	outDir  string
}

// Run shape. Setup is repeated so that setup_s is a median; a run
// measures for opts.seconds but never takes fewer than minPasses.
const (
	setupReps     = 5
	minPasses     = 5
	basePasses    = 6 // traced run: unobserved passes the overheads are taken against
	observedPass  = 4 // traced run: passes with attribution, metrics and spans on
	profiledPass  = 8 // traced run: passes under the CPU profiler
	noiseCalibPct = 5.0
	noiseRangePct = 20.0
)

// metricValue is one reported number. Timed end-to-end metrics carry
// their samples' summary as well.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// runDetail is everything one run produced. It is written beside the
// span trace and merged by the all-workloads mode; the driver's result
// line is cut from it.
type runDetail struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      uint64                 `json:"seed"`
	Smoke     bool                   `json:"smoke"`
	Digest    string                 `json:"digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Noisy     bool                   `json:"noisy"`
	Observers string                 `json:"observers"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	Errors    []string               `json:"errors,omitempty"`

	ref string // the digest every pass must reproduce
}

// check counts one pass. It fails if the call failed or if its digest
// differs from the reference: the pinned digest at the default seed,
// the run's first pass otherwise.
func (d *runDetail) check(out *passOut, err error) {
	d.Attempted++
	switch {
	case err != nil:
		d.fail(err)
	case d.ref == "":
		d.ref = out.digest()
	case out.digest() != d.ref:
		d.fail(fmt.Errorf("digest %s, want %s", out.digest(), d.ref))
	}
}

func (d *runDetail) fail(err error) {
	d.Failed++
	d.Errors = append(d.Errors, err.Error())
}

func newDetail(w *workload, o runOpts, traced bool) (*runDetail, error) {
	d := &runDetail{Workload: w.name, Traced: traced, Seed: o.seed, Smoke: o.smoke, Metrics: map[string]metricValue{}}
	if o.seed == defaultSeed && !o.smoke {
		ref, err := pinnedDigest(w.name)
		if err != nil {
			return nil, err
		}
		d.ref = ref
	}
	return d, nil
}

// observerState describes what is attached to the simulations a pass
// builds. The end-to-end metrics are only valid when all of it is off.
func observerState() string {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	// Only runTraced starts a CPU profile, after it has recorded this.
	return fmt.Sprintf("attribution=%s metrics=%s tracing=%s profiling=off",
		onOff(experiments.AttribEnabled()), onOff(experiments.MetricsEnabled()),
		onOff(experiments.TraceCollector() != nil))
}

const observersOff = "attribution=off metrics=off tracing=off profiling=off"

// setup does what precedes the first timed pass: generate the inputs
// from the seed, starting from empty caches, and run one warm-up pass.
func setup(w *workload, o runOpts, d *runDetail) (passFn, error) {
	experiments.ResetCompileCache()
	pass, err := w.prepare(o.seed, o.smoke)
	if err != nil {
		d.check(nil, err)
		return nil, err
	}
	out, err := pass(passEnv{})
	d.check(out, err)
	return pass, err
}

// timedPass runs one pass under the clock.
func timedPass(pass passFn, env passEnv) (cost passCost, out *passOut, err error) {
	cost, err = timed(func() (err error) {
		out, err = pass(env)
		return err
	})
	return cost, out, err
}

// runUntraced measures the end-to-end metrics: one client, one thread
// of simulation, every observer off.
func runUntraced(w *workload, o runOpts) (*runDetail, error) {
	d, err := newDetail(w, o, false)
	if err != nil {
		return nil, err
	}
	experiments.SetWorkers(1)
	experiments.SetShards(1)
	d.Observers = observerState()
	if d.Observers != observersOff {
		return nil, fmt.Errorf("untraced run with %s", d.Observers)
	}

	reps, least := setupReps, minPasses
	if o.smoke {
		reps, least = 1, 1
	}
	var pass passFn
	var setups []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if pass, err = setup(w, o, d); err != nil {
			return d, nil
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	var wall, mallocs, allocMB, calib []float64
	start := time.Now()
	for n := 0; n < least || (!o.smoke && time.Since(start).Seconds() < o.seconds); n++ {
		cost, out, err := timedPass(pass, passEnv{})
		d.check(out, err)
		if err != nil {
			continue
		}
		calib = append(calib, cost.CalibNs)
		wall = append(wall, cost.WallS)
		mallocs = append(mallocs, cost.Mallocs)
		allocMB = append(allocMB, cost.AllocMB)
	}
	d.Digest = d.ref

	put := func(name string, xs []float64) summary {
		s := summarize(xs)
		d.Metrics[name] = metricValue{Value: s.Median, Samples: &s}
		return s
	}
	put("setup_s", setups)
	ws := put("wall_s", wall)
	put("allocs_per_pass", mallocs)
	put("alloc_mb_per_pass", allocMB)
	d.Metrics["peak_rss_mb"] = metricValue{Value: peakRSSMB()}
	for _, def := range endToEnd {
		v := d.Metrics[def.Name]
		v.Unit = def.Unit
		d.Metrics[def.Name] = v
	}
	cs := summarize(calib)
	if cs.rangePct() > noiseCalibPct || ws.rangePct() > noiseRangePct {
		d.Noisy = true
		d.Notes = append(d.Notes, fmt.Sprintf("noisy host: calibration spin spread %.1f%% (limit %.0f%%), wall_s range %.1f%% (limit %.0f%%)",
			cs.rangePct(), noiseCalibPct, ws.rangePct(), noiseRangePct))
	}
	return d, nil
}

// snapshotSums maps a registry key's suffix to the per-layer count it
// adds to.
var snapshotSums = []struct{ suffix, metric string }{
	{"engine.cycle", "sim.cycles"},
	{"engine.events.scheduled", "sim.events_scheduled"},
	{".attrib.engine.evals", "sim.component_evals"},
	{".xbar.moves.count", "noc.flit_hops"},
	{"net.packets.injected", "noc.packets_injected"},
	{"net.packets.ejected", "noc.packets_ejected"},
	{".attrib.router.active", "noc.router_active_cy"},
	{".attrib.router.vc-stall", "noc.router_vc_stall_cy"},
	{".attrib.router.credit-stall", "noc.router_credit_stall_cy"},
	{".attrib.ni.backpressure", "noc.ni_backpressure_cy"},
	{".attrib.cache.mshr-allocs", "cache.mshr_allocs"},
	{".attrib.cache.miss-cycles", "cache.miss_cycles"},
	{".executed.count", "core.instr_executed"},
	{".captured.count", "core.tokens_captured"},
	{".offloaded.count", "core.tokens_offloaded"},
	{".congested.cycles.count", "core.cpm_congested_cy"},
	{".attrib.rcu.exec", "core.rcu_exec_cy"},
	{".attrib.rcu.operand-wait", "core.rcu_operand_wait_cy"},
	{".attrib.cpm.issue", "core.cpm_issue_cy"},
	{".attrib.cpm.throttled", "core.cpm_throttled_cy"},
}

// foldSnapshots adds the counts of the simulations one pass built to
// counts. Keys are visited in sorted order so that float sums repeat
// bit for bit.
func foldSnapshots(snaps []stats.Snapshot, counts map[string]float64) {
	var latSum, delivered, l1, l2, cached float64
	for _, s := range snaps {
		for _, key := range s.Keys() {
			v := s.Values[key]
			for _, m := range snapshotSums {
				if strings.HasSuffix(key, m.suffix) {
					counts[m.metric] += v
					break
				}
			}
			if base, ok := strings.CutSuffix(key, ".avglat"); ok && strings.HasPrefix(key, "ni") {
				n := s.Values[base+".delivered"]
				latSum += v * n
				delivered += n
			}
		}
		if v, ok := s.Values["cache.l1.hitrate"]; ok {
			l1 += v
			l2 += s.Values["cache.l2.hitrate"]
			cached++
		}
	}
	if delivered > 0 {
		counts["noc.avg_packet_latency_cy"] = latSum / delivered
	}
	if cached > 0 {
		counts["cache.l1_hit_rate"] = l1 / cached
		counts["cache.l2_hit_rate"] = l2 / cached
	}
}

// spanMetrics are the per-layer metrics that are a span's seconds per
// pass.
var spanMetrics = []string{
	"noc.build", "cache.build", "cpu.build", "cpu.run", "core.build", "core.run",
	"compiler.compile", "experiments.run",
}

// runTraced measures the per-layer metrics. Nothing inside the
// simulator is instrumented for it: spans are recorded here around
// calls into the layers, the CPU profile is started here and folded by
// leaf frame, and counts come through the registries and accessors the
// layers already export.
func runTraced(w *workload, o runOpts) (*runDetail, error) {
	d, err := newDetail(w, o, true)
	if err != nil {
		return nil, err
	}
	experiments.SetWorkers(1)
	experiments.SetShards(1)
	nBase, nObs, nProf := basePasses, observedPass, profiledPass
	if o.smoke {
		nBase, nObs, nProf = 1, 2, 1
	}
	m := map[string]float64{}
	tr := newTracer()
	var calib []float64

	pass, err := setup(w, o, d)
	if err != nil {
		return d, nil
	}
	// run times one pass and counts it.
	run := func(env passEnv) (passCost, *passOut) {
		tr.nextPass()
		cost, out, err := timedPass(pass, env)
		d.check(out, err)
		calib = append(calib, cost.CalibNs)
		return cost, out
	}

	var baseS []float64
	for i := 0; i < nBase; i++ {
		cost, _ := run(passEnv{})
		baseS = append(baseS, cost.WallS)
	}
	base := summarize(baseS).Median

	experiments.EnableAttribution(0)
	defer experiments.DisableObservability()
	var obsS []float64
	var counts []map[string]float64
	var lastCost passCost
	var lastOut *passOut
	for i := 0; i < nObs; i++ {
		experiments.EnableMetrics() // drops the previous pass's snapshots
		env := passEnv{tr: tr, counts: map[string]float64{}}
		hits0, misses0 := experiments.CompileCacheStats()
		lastCost, lastOut = run(env)
		hits1, misses1 := experiments.CompileCacheStats()
		// A pass that empties the compile cache zeroes these counters as
		// it goes, and counts its own hits and misses instead.
		if _, counted := env.counts["compiler.cache_misses"]; !counted {
			env.counts["compiler.cache_hits"] = float64(hits1 - hits0)
			env.counts["compiler.cache_misses"] = float64(misses1 - misses0)
		}
		foldSnapshots(experiments.MetricsSnapshots(), env.counts)
		obsS = append(obsS, lastCost.WallS)
		counts = append(counts, env.counts)
	}
	d.Observers = observerState()
	if d.Failed > 0 {
		return d, nil
	}
	for k, v := range counts[nObs-1] {
		m[k] = v
	}
	for k, v := range lastOut.model {
		m[k] = v
	}
	// Every C count must repeat exactly from one pass to the next.
	for _, def := range perLayer {
		if def.Source == srcCount && counts[0][def.Name] != counts[nObs-1][def.Name] {
			d.fail(fmt.Errorf("count %s differs between passes: %v, %v", def.Name, counts[0][def.Name], counts[nObs-1][def.Name]))
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var profS []float64
	for i := 0; i < nProf; i++ {
		cost, _ := run(passEnv{tr: tr})
		profS = append(profS, cost.WallS)
	}
	pprof.StopCPUProfile()
	frames, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for layer, s := range foldProfile(frames) {
		m[selfMetric(layer)] = s / float64(nProf)
	}

	tr.nextPass()
	extra := passEnv{tr: tr, counts: map[string]float64{}}
	notes, err := w.extras(extrasIn{seed: o.seed, smoke: o.smoke, base: base, ref: d.ref, pass: pass, env: extra, m: m})
	d.Notes = append(d.Notes, notes...)
	if err != nil {
		d.Attempted++
		d.fail(err)
	}
	for k, v := range extra.counts {
		m[k] = v
	}
	// A span name belongs either to the passes or to the extras, so its
	// seconds per pass are its total over the passes that hold it.
	total, _ := tr.totals()
	for _, name := range spanMetrics {
		if n := tr.passes(name); n > 0 {
			m[name+"_s"] = total[name] / float64(n)
		}
	}

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["sim.cycles_per_s"] = ratio(m["sim.cycles"], base)
	m["sim.evals_per_cycle"] = ratio(m["sim.component_evals"], m["sim.cycles"])
	m["noc.flit_hops_per_s"] = ratio(m["noc.flit_hops"], base)
	m["noc.host_ns_per_flit_hop"] = ratio(base*1e9, m["noc.flit_hops"])
	m["experiments.cells_per_s"] = ratio(float64(lastOut.cells), base)
	m["obs.trace_overhead_pct"] = (ratio(summarize(obsS).Median, base) - 1) * 100
	m["obs.profile_overhead_pct"] = (ratio(summarize(profS).Median, base) - 1) * 100
	m["runtime.gc_cycles"] = lastCost.GCs
	m["runtime.gc_pause_ms"] = lastCost.PauseMs
	cs := summarize(calib)
	m["host.calib_spin_ns"] = cs.Median
	m["host.calib_spread_pct"] = cs.rangePct()
	m["host.nproc"] = float64(runtime.NumCPU())
	m["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	d.Noisy = cs.rangePct() > noiseCalibPct

	d.Digest = d.ref
	for _, def := range perLayer {
		d.Metrics[def.Name] = metricValue{Value: m[def.Name], Unit: def.Unit}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return d, nil
}

// detailPath is where a run's detail is kept for the all-workloads
// mode to merge.
func detailPath(outDir, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-%s.json", workload, kind))
}

func (d *runDetail) write(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(detailPath(outDir, d.Workload, d.Traced), data, 0o644)
}

// resultLine is the one JSON object the driver reads from the last
// line of standard output.
func (d *runDetail) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: d.Failed == 0, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]mv{}}
	for k, v := range d.Metrics {
		out.Metrics[k] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(out) // a struct of numbers and strings always marshals
	return string(b)
}

// metricNames returns a detail's metric names in sorted order.
func (d *runDetail) metricNames() []string {
	names := make([]string, 0, len(d.Metrics))
	for k := range d.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
