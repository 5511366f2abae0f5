package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"snacknoc/internal/attrib"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// maxCycles bounds every simulation a pass starts; reaching it fails
// the pass.
const maxCycles = 2_000_000_000

// passEnv is what a pass is handed. Both fields are nil in the untraced
// run: spans go nowhere and no host-side count is kept.
type passEnv struct {
	tr *tracer
	// counts receives the exact counts a pass reads through public
	// accessors that no metrics registry carries.
	counts map[string]float64
}

func (e passEnv) count(name string, v float64) {
	if e.counts != nil {
		e.counts[name] += v
	}
}

// passOut is what one pass produced: a running hash over every
// simulated statistic it returned, the model.* values among them, and
// how many cells (kernel runs, benchmarks, co-runs, load points, grid
// cells) it covered.
type passOut struct {
	h     hash.Hash
	model map[string]float64
	cells int
}

func newPassOut() *passOut {
	return &passOut{h: sha256.New(), model: map[string]float64{}}
}

// stat folds one named simulated result into the digest. %v prints a
// float64 with the digits that identify it, so equal digests mean equal
// bits.
func (o *passOut) stat(name string, vals ...any) {
	fmt.Fprintf(o.h, "%s=%v\n", name, vals)
}

func (o *passOut) digest() string { return hex.EncodeToString(o.h.Sum(nil)[:16]) }

// passFn runs one pass at the size fixed when it was prepared.
type passFn func(env passEnv) (*passOut, error)

// extrasIn is what a workload's extras are handed.
type extrasIn struct {
	seed  uint64
	smoke bool
	base  float64 // median host seconds of an unobserved pass
	ref   string  // the digest every pass of this run produced
	pass  passFn
	env   passEnv            // spans and counts of the extras
	m     map[string]float64 // per-layer values; extras add theirs
}

// extrasFn measures, in the traced run only, what a workload alone can
// answer: a hand-assembled replica of one runner leg for the spans the
// runner hides, and the speed-up questions ROADMAP leaves open.
type extrasFn func(in extrasIn) (notes []string, err error)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// prepare generates the pass's inputs from the seed and checks what
	// can be checked once, outside the timed passes.
	prepare func(seed uint64, smoke bool) (passFn, error)
	extras  extrasFn
}

var workloads = []workload{
	{
		name:    "kernels_zero_load",
		why:     "Fig 9 path: compiler, RCU/CPM and the noc loop route do the work; cache, cpu and checkpoint are bypassed",
		prepare: prepareKernels,
		extras:  kernelsExtras,
	},
	{
		name:    "cmp_sparse_traffic",
		why:     "Fig 2 path: cache, cpu and traffic carry weight on a mostly idle mesh, so engine quiescence and router idle paths show; core and compiler are bypassed",
		prepare: prepareCMP,
		extras:  cmpExtras,
	},
	{
		name:    "corun_interference",
		why:     "Fig 12/13 path, the headline experiment: every layer is live at once, so a gain that exists only in isolation disappears here",
		prepare: prepareCoRun,
		extras:  coRunExtras,
	},
	{
		name:    "mesh_saturation",
		why:     "the noc layer used the opposite way to cmp_sparse_traffic: every router busy every cycle, nothing to skip; best case for shards",
		prepare: prepareMesh,
		extras:  meshExtras,
	},
	{
		name:    "dse_fork_sweep",
		why:     "many short legs, each a checkpoint.Pool fork, a short run and scoring: restore walks, platform builds and the allocator dominate; cache and cpu are bypassed",
		prepare: prepareDSE,
		extras:  dseExtras,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// observed attaches this run's attribution recorder through attach and
// returns the function that records the simulation's metrics snapshot
// once it has run. While observability is off the recorder is nil,
// attach receives the disabled value every SetAttrib accepts, and
// nothing is recorded — the same contract cmd/snacksim relies on.
func observed(label string, attach func(*attrib.Recorder), register func(*stats.Registry)) func() {
	rec := experiments.ObserveRecorder()
	attach(rec)
	return func() {
		if !experiments.MetricsEnabled() && rec == nil {
			return
		}
		reg := stats.NewRegistry()
		register(reg)
		experiments.RegisterRunMetrics(reg, rec, nil)
		experiments.RecordSnapshot(reg.Snapshot(label))
	}
}

// ---- kernels_zero_load ----

// kernelRounds and its companions below are the pass sizes. They were
// chosen on a 2-core host so that a pass takes about half a second: a
// run then holds twenty to thirty passes, and the statistic taken over
// them is steady although the host is not.
const kernelRounds = 2

func kernelSize(smoke bool) (rounds int, dims experiments.KernelDims) {
	if smoke {
		return 1, experiments.DSESmokeDims()
	}
	return kernelRounds, experiments.DefaultKernelDims()
}

// runKernel compiles one kernel and runs it on a fresh zero-load 4x4
// platform, the Fig 9 measurement.
func runKernel(env passEnv, k cpu.KernelName, dims experiments.KernelDims, seed uint64) (*core.Program, *core.Result, error) {
	end := env.tr.start("compiler.compile")
	prog, err := experiments.CompileKernel(k, dims, 16, seed)
	end()
	if err != nil {
		return nil, nil, err
	}
	env.count("compiler.entries", float64(len(prog.Entries)))

	end = env.tr.start("core.build")
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, 4, 4, true, core.DefaultPlatformConfig())
	end()
	if err != nil {
		return nil, nil, err
	}
	record := observed(fmt.Sprintf("kernel/%s/%d", k, seed), plat.SetAttrib, plat.RegisterMetrics)

	end = env.tr.start("core.run")
	res, err := plat.Run(prog, maxCycles)
	end()
	if err != nil {
		return nil, nil, err
	}
	record()
	return prog, res, nil
}

func prepareKernels(seed uint64, smoke bool) (passFn, error) {
	rounds, dims := kernelSize(smoke)
	// The platform must compute what the dataflow graph evaluates to.
	// Checked here once per kernel, on the first round's inputs.
	experiments.ResetCompileCache()
	for _, k := range cpu.Kernels() {
		g, err := experiments.BuildKernelGraph(k, dims, seed)
		if err != nil {
			return nil, err
		}
		_, res, err := runKernel(passEnv{}, k, dims, seed)
		if err != nil {
			return nil, err
		}
		want := g.Eval()
		if len(want) != len(res.Values) {
			return nil, fmt.Errorf("%s: %d results, reference has %d", k, len(res.Values), len(want))
		}
		for i := range want {
			if want[i] != res.Values[i] {
				return nil, fmt.Errorf("%s: result %d is %v, reference %v", k, i, res.Values[i], want[i])
			}
		}
	}
	return func(env passEnv) (*passOut, error) {
		out := newPassOut()
		var total int64
		for r := 0; r < rounds; r++ {
			// Compilation is part of the timed operation: every round
			// starts from an empty cache and new input data.
			experiments.ResetCompileCache()
			for _, k := range cpu.Kernels() {
				prog, res, err := runKernel(env, k, dims, seed+uint64(r))
				if err != nil {
					return nil, err
				}
				out.stat(fmt.Sprintf("round%d.%s", r, k), res.Cycles(), prog.Instructions(), prog.InputTokens(), res.Values)
				total += res.Cycles()
				out.cells++
			}
			hits, misses := experiments.CompileCacheStats()
			env.count("compiler.cache_hits", float64(hits))
			env.count("compiler.cache_misses", float64(misses))
		}
		out.model["model.kernel_cycles_total"] = float64(total)
		return out, nil
	}, nil
}

// ---- cmp_sparse_traffic ----

func cmpSize(smoke bool) experiments.Scale {
	if smoke {
		return 0.002
	}
	return 0.1
}

func cmpProfiles() []*traffic.Profile {
	return []*traffic.Profile{traffic.Graph500(), traffic.LULESH(), traffic.FMM(), traffic.Cholesky()}
}

func prepareCMP(_ uint64, smoke bool) (passFn, error) {
	scale := cmpSize(smoke)
	profs := cmpProfiles()
	return func(env passEnv) (*passOut, error) {
		out := newPassOut()
		var total int64
		for _, p := range profs {
			end := env.tr.start("experiments.run")
			r, err := experiments.RunBenchmark(noc.DAPPER(4, 4), p, scale)
			end()
			if err != nil {
				return nil, err
			}
			out.stat(p.Name, r.Runtime, r.XbarMedianPct, r.XbarMaxPct, r.LinkMedianPct, r.LinkMaxPct,
				r.L1HitRate, r.L2HitRate, r.XbarSeries, r.LinkSeries, r.BufferCDF)
			total += r.Runtime
			out.cells++
		}
		out.model["model.cmp_runtime_cy"] = float64(total)
		return out, nil
	}, nil
}

// ---- corun_interference ----

func coRunSpecs(smoke bool) []experiments.CoRunSpec {
	if smoke {
		return []experiments.CoRunSpec{
			{Bench: traffic.CoMD(), Kernel: cpu.KernelSPMV, Dims: experiments.DSESmokeDims(),
				Width: 4, Height: 4, Priority: true, Scale: 0.002},
		}
	}
	return []experiments.CoRunSpec{
		// A Fig 12 cell: some sixteen SPMV kernels back to back against
		// the low-traffic benchmark, priority arbitration on.
		{Bench: traffic.CoMD(), Kernel: cpu.KernelSPMV, Dims: experiments.DefaultKernelDims(),
			Width: 4, Height: 4, Priority: true, Scale: 0.1},
	}
}

func prepareCoRun(_ uint64, smoke bool) (passFn, error) {
	specs := coRunSpecs(smoke)
	return func(env passEnv) (*passOut, error) {
		out := newPassOut()
		impact, slowdown := math.Inf(-1), math.Inf(-1)
		for _, s := range specs {
			end := env.tr.start("experiments.run")
			r, err := experiments.RunCoRun(s)
			end()
			if err != nil {
				return nil, err
			}
			out.stat(fmt.Sprintf("%sx%s@%dx%d", r.Benchmark, r.Kernel, s.Width, s.Height),
				r.BaselineRuntime, r.Runtime, r.KernelRuns, r.KernelCyclesAvg, r.ZeroLoadCycles,
				r.XbarMedianPct, r.Offloaded, r.ImpactPct(), r.KernelSlowdownPct(), r.XbarSeries)
			impact = max(impact, r.ImpactPct())
			slowdown = max(slowdown, r.KernelSlowdownPct())
			out.cells++
		}
		out.model["model.cmp_impact_pct"] = impact
		out.model["model.kernel_slowdown_pct"] = slowdown
		return out, nil
	}, nil
}

// ---- mesh_saturation ----

// meshRates are zero load, the knee and saturation of the 8x8 mesh
// (it saturates near 0.11 packets per node per cycle).
var meshRates = []float64{0.02, 0.08, 0.20}

const meshPacketBytes = 64

func meshSize(smoke bool) (cfg *noc.Config, cycles int64) {
	if smoke {
		return noc.DAPPER(4, 4), 1200
	}
	return noc.DAPPER(8, 8), 4000
}

// meshCurveByHand is noc.LoadLatencyCurve assembled from the layer's
// public constructors, so the traced run can put spans and observers
// around what the library call hides. The digest check holds it equal
// to the library's result.
func meshCurveByHand(env passEnv, cfg *noc.Config, cycles int64, seed uint64) ([]noc.LoadPoint, error) {
	var pts []noc.LoadPoint
	for _, rate := range meshRates {
		end := env.tr.start("noc.build")
		eng := sim.NewEngine()
		net, err := noc.New(eng, cfg)
		end()
		if err != nil {
			return nil, err
		}
		inj := noc.NewSyntheticInjector(net, noc.UniformRandom(), rate, meshPacketBytes, noc.VNetReq, seed)
		eng.Register(inj)
		record := observed(fmt.Sprintf("mesh/%v", rate),
			func(rec *attrib.Recorder) { net.SetAttrib(rec); eng.SetAttrib(rec) },
			func(reg *stats.Registry) { net.RegisterMetrics(reg); eng.RegisterMetrics(reg) })
		end = env.tr.start("sim.run")
		eng.Run(cycles)
		end()
		record()
		pts = append(pts, noc.LoadPoint{
			Rate:       rate,
			AvgLatency: inj.AvgLatency(),
			Throughput: float64(inj.Received()) / float64(cycles) / float64(cfg.Nodes()),
			Saturated:  float64(inj.Received()) < 0.8*float64(inj.Injected()),
		})
	}
	return pts, nil
}

func prepareMesh(seed uint64, smoke bool) (passFn, error) {
	cfg, cycles := meshSize(smoke)
	return meshPass(cfg, cycles, seed), nil
}

// meshPass is the load-latency curve on one mesh configuration.
func meshPass(cfg *noc.Config, cycles int64, seed uint64) passFn {
	return func(env passEnv) (*passOut, error) {
		var pts []noc.LoadPoint
		var err error
		if env.tr == nil {
			pts, err = noc.LoadLatencyCurve(cfg, noc.UniformRandom(), meshRates, meshPacketBytes, cycles, seed)
		} else {
			pts, err = meshCurveByHand(env, cfg, cycles, seed)
		}
		if err != nil {
			return nil, err
		}
		out := newPassOut()
		for _, p := range pts {
			out.stat(fmt.Sprintf("rate%v", p.Rate), p.AvgLatency, p.Throughput, p.Saturated)
			out.cells++
		}
		last := pts[len(pts)-1]
		out.model["model.sat_avg_latency_cy"] = last.AvgLatency
		out.model["model.sat_throughput"] = last.Throughput
		return out, nil
	}
}

// ---- dse_fork_sweep ----

func dseConfig(smoke bool) experiments.DSEConfig {
	cfg := experiments.DefaultDSEConfig()
	cfg.Kernels = []cpu.KernelName{cpu.KernelMAC, cpu.KernelSGEMM}
	cfg.Dims = experiments.DSESmokeDims()
	// A quarter of the default grid, two of its eight buffer depths: 64
	// cells on both mesh sizes, 128 legs.
	cfg.Axes.BufDepths = []int{2, 8}
	if smoke {
		cfg.Axes = experiments.DSEAxes{BufDepths: []int{2, 4}, ChanWidths: []int{16}, VCCounts: []int{2, 4}, RCUCounts: []int{16}}
	}
	return cfg
}

// dseStats folds a DSE result's scores and frontier into out. The
// rendered report is not used: it gains a verdict column under
// attribution, which the traced run turns on.
func dseStats(out *passOut, r *experiments.DSEResult) {
	for i := range r.Cells {
		c := &r.Cells[i]
		out.stat(fmt.Sprintf("cell%d", i), c.BufDepth, c.ChanWidth, c.VCs, c.RCUs, c.KernelCycles,
			c.Speedup, c.LatencyCycles, c.PowerW, c.AreaMM, c.Frontier)
	}
	out.stat("frontier", r.Frontier)
}

func prepareDSE(_ uint64, smoke bool) (passFn, error) {
	cfg := dseConfig(smoke)
	return func(env passEnv) (*passOut, error) {
		end := env.tr.start("experiments.run")
		r, err := experiments.RunDSE(cfg)
		end()
		if err != nil {
			return nil, err
		}
		out := newPassOut()
		dseStats(out, r)
		var cycles int64
		for i := range r.Cells {
			for _, c := range r.Cells[i].KernelCycles {
				cycles += c
			}
		}
		out.cells = len(r.Cells)
		out.model["model.pareto_cells"] = float64(len(r.Frontier))
		out.model["model.kernel_cycles_total"] = float64(cycles)
		// RunDSE keeps no registry per leg; the kernel legs' cycles are
		// the simulated time it does report.
		env.count("sim.cycles", float64(cycles))
		env.count("checkpoint.pool_hits", float64(r.PoolHits))
		env.count("checkpoint.pool_misses", float64(r.PoolMisses))
		env.count("checkpoint.forks", float64(r.Forks))
		env.count("checkpoint.pool_fork_avg_ns", r.AvgForkNs)
		return out, nil
	}, nil
}
