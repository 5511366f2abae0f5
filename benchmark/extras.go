package main

import (
	"fmt"
	"math"
	"runtime"

	"snacknoc/internal/attrib"
	"snacknoc/internal/cache"
	"snacknoc/internal/checkpoint"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/power"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// sampleInterval is the utilization window the experiment runners
// sample at; a replica samples at the same one so it does the runner's
// host work.
const sampleInterval = 2000

// speedup times one unobserved pass under a changed setting and returns
// base divided by its time. The setting may change host time only: a
// digest other than want is an error.
func speedup(what string, base float64, pass passFn, want string) (float64, error) {
	cost, out, err := timedPass(pass, passEnv{})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", what, err)
	}
	if got := out.digest(); got != want {
		return 0, fmt.Errorf("%s changed the simulated result: digest %s, want %s", what, got, want)
	}
	return base / cost.WallS, nil
}

// paperAnchors are the Fig 9 speedups the reproduction is held to.
var paperAnchors = map[cpu.KernelName]float64{
	cpu.KernelSGEMM: 6.0, cpu.KernelMAC: 2.48, cpu.KernelReduction: 2.64, cpu.KernelSPMV: 2.05,
}

// kernelsExtras states the simulator's error against the paper's
// anchors beside the speed numbers: the largest relative error of the
// four Fig 9 speedups and of Table II's 147-RCU area and power.
func kernelsExtras(in extrasIn) ([]string, error) {
	if in.smoke {
		return []string{"experiments.anchor_err_pct: the paper anchors hold at the reproduction sizes only, not at smoke size"}, nil
	}
	dims := experiments.DefaultKernelDims()
	worst := 0.0
	for _, k := range cpu.Kernels() {
		_, res, err := runKernel(passEnv{}, k, dims, in.seed)
		if err != nil {
			return nil, err
		}
		one := cpu.CPUKernelCycles(k, dims.CPUDims(k), 1, cpu.DefaultCPUConfig())
		got := float64(one) / float64(res.Cycles())
		worst = max(worst, math.Abs(got-paperAnchors[k])/paperAnchors[k]*100)
	}
	total := power.SnackNoCTotal(147)
	worst = max(worst, math.Abs(total.AreaMM-3.06)/3.06*100, math.Abs(total.PowerW-0.70)/0.70*100)
	in.m["experiments.anchor_err_pct"] = worst
	return nil, nil
}

// cmpLeg is one leg of RunBenchmark or RunCoRun assembled from the
// layers' public constructors, with a span around each.
type cmpLeg struct {
	eng  *sim.Engine
	net  *noc.Network
	sys  *cache.System
	work *cpu.Workload
}

func buildCMPLeg(env passEnv, cfg *noc.Config, prof *traffic.Profile) (*cmpLeg, error) {
	end := env.tr.start("noc.build")
	eng := sim.NewEngine()
	net, err := noc.New(eng, cfg)
	end()
	if err != nil {
		return nil, err
	}
	net.EnableSampling(sampleInterval)
	end = env.tr.start("cache.build")
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	end()
	if err != nil {
		return nil, err
	}
	end = env.tr.start("cpu.build")
	// The runners seed their workloads with experiments.Seed, so a
	// replica that must reproduce their result does too.
	w, err := cpu.NewWorkload(eng, sys, prof, experiments.Seed)
	end()
	if err != nil {
		return nil, err
	}
	return &cmpLeg{eng: eng, net: net, sys: sys, work: w}, nil
}

// run drives the leg to completion and reads the cores' counters.
func (l *cmpLeg) run(env passEnv) error {
	end := env.tr.start("cpu.run")
	_, ok := cpu.Run(l.eng, l.work, maxCycles)
	end()
	if !ok {
		return fmt.Errorf("replica of %s did not complete", l.work.Profile.Name)
	}
	for _, c := range l.work.Cores {
		env.count("cpu.instr_retired", float64(c.Retired()))
		env.count("cpu.stall_cycles", float64(c.StallCycles()))
	}
	return nil
}

// cmpExtras replicates RunBenchmark's Cholesky leg by hand and holds
// its runtime to the runner's.
func cmpExtras(in extrasIn) ([]string, error) {
	env := in.env
	prof, scale := traffic.Cholesky(), cmpSize(in.smoke)
	want, err := experiments.RunBenchmark(noc.DAPPER(4, 4), prof, scale)
	if err != nil {
		return nil, err
	}
	leg, err := buildCMPLeg(env, noc.DAPPER(4, 4), traffic.Scale(prof, float64(scale)))
	if err != nil {
		return nil, err
	}
	record := observed("replica/"+prof.Name,
		func(rec *attrib.Recorder) { leg.net.SetAttrib(rec); leg.sys.SetAttrib(rec); leg.eng.SetAttrib(rec) },
		func(reg *stats.Registry) { leg.net.RegisterMetrics(reg); leg.eng.RegisterMetrics(reg) })
	if err := leg.run(env); err != nil {
		return nil, err
	}
	record()
	if got := leg.work.Runtime(); got != want.Runtime {
		return nil, fmt.Errorf("replica of %s ran %d cycles, RunBenchmark %d", prof.Name, got, want.Runtime)
	}
	return nil, nil
}

// coRunExtras replicates the co-run leg of the first cell by hand, and
// answers ROADMAP item 3's question about warm sweeps.
func coRunExtras(in extrasIn) ([]string, error) {
	env := in.env
	spec := coRunSpecs(in.smoke)[0]
	want, err := experiments.RunCoRun(spec)
	if err != nil {
		return nil, err
	}
	prog, err := experiments.CompileKernel(spec.Kernel, spec.Dims, spec.Width*spec.Height, experiments.Seed)
	if err != nil {
		return nil, err
	}
	leg, err := buildCMPLeg(env, noc.SnackPlatform(spec.Width, spec.Height, spec.Priority),
		traffic.Scale(spec.Bench, float64(spec.Scale)))
	if err != nil {
		return nil, err
	}
	end := env.tr.start("core.build")
	plat, err := core.AttachToSystem(leg.eng, leg.sys, core.DefaultPlatformConfig())
	end()
	if err != nil {
		return nil, err
	}
	record := observed("replica/corun",
		func(rec *attrib.Recorder) { plat.SetAttrib(rec); leg.sys.SetAttrib(rec) },
		plat.RegisterMetrics)
	// Kernels are resubmitted until the benchmark finishes, as the
	// runner's co-run leg does.
	var resubmit func(*core.Result)
	resubmit = func(*core.Result) {
		if leg.work.Done() {
			return
		}
		leg.eng.ScheduleAfter(1, func() {
			if !plat.CPM.Submit(prog, leg.eng.Cycle(), resubmit) {
				panic("benchmark: CPM busy at resubmission")
			}
		})
	}
	resubmit(nil)
	if err := leg.run(env); err != nil {
		return nil, err
	}
	record()
	if got := int64(leg.work.MeanFinish() * 16); got != want.Runtime {
		return nil, fmt.Errorf("replica co-run ran %d, RunCoRun %d", got, want.Runtime)
	}

	experiments.SetWarmSweeps(true)
	defer experiments.SetWarmSweeps(false)
	in.m["experiments.warm_speedup"], err = speedup("warm sweeps", in.base, in.pass, in.ref)
	return []string{"experiments.warm_speedup: each RunCoRun opens and closes its own memo scope, so from outside a pass reuses nothing across cells; the sweep drivers (RunFig12/RunFig13) are where warm mode can pay"}, err
}

// meshExtras settles what -shards buys on the workload that suits it
// best: one pass on two column slices against one.
func meshExtras(in extrasIn) ([]string, error) {
	if runtime.NumCPU() < 2 {
		return []string{"sim.shards2_speedup: not measured, the host has one CPU"}, nil
	}
	cfg, cycles := meshSize(in.smoke)
	sharded := *cfg
	sharded.Shards = 2
	var err error
	in.m["sim.shards2_speedup"], err = speedup("two shards", in.base, meshPass(&sharded, cycles, in.seed), in.ref)
	return nil, err
}

// checkpointCalls is how many Take, Restore and Fork calls are timed.
const checkpointCalls = 50

// dseExtras replicates one DSE leg by hand, measures what -j 2 buys on
// the sweep, and times Take, Restore and Fork on the warmed co-run
// platform the repo's BenchmarkCheckpoint* use.
func dseExtras(in extrasIn) ([]string, error) {
	env := in.env
	var notes []string
	cfg := dseConfig(in.smoke)
	a := cfg.Axes
	cfg.Axes = experiments.DSEAxes{BufDepths: a.BufDepths[:1], ChanWidths: a.ChanWidths[:1], VCCounts: a.VCCounts[:1], RCUCounts: a.RCUCounts[:1]}
	cfg.Kernels = cfg.Kernels[:1]
	want, err := experiments.RunDSE(cfg)
	if err != nil {
		return nil, err
	}
	cell := want.Cells[0]
	prog, err := experiments.CompileKernel(cfg.Kernels[0], cfg.Dims, cell.RCUs, experiments.Seed)
	if err != nil {
		return nil, err
	}
	end := env.tr.start("core.build")
	eng := sim.NewEngine()
	plat, err := core.NewStandaloneOn(eng, noc.SnackPlatformCustom(cell.Width, cell.Height, cfg.Priority,
		cell.VCs, cell.BufDepth, cell.ChanWidth), core.DefaultPlatformConfig())
	end()
	if err != nil {
		return nil, err
	}
	pool := checkpoint.NewPool(1)
	end = env.tr.start("checkpoint.seal")
	entry := pool.Seal("replica", checkpoint.Target{Eng: eng, Net: plat.Net, Plat: plat}, nil)
	end()
	end = env.tr.start("checkpoint.fork")
	entry.Fork()
	end()
	end = env.tr.start("core.run")
	res, err := plat.Run(prog, maxCycles)
	end()
	if err != nil {
		return nil, err
	}
	entry.Release()
	if res.Cycles() != cell.KernelCycles[0] {
		return nil, fmt.Errorf("replica DSE leg ran %d cycles, RunDSE %d", res.Cycles(), cell.KernelCycles[0])
	}

	if runtime.NumCPU() < 2 {
		notes = append(notes, "experiments.j2_speedup: not measured, the host has one CPU")
	} else {
		experiments.SetWorkers(2)
		in.m["experiments.j2_speedup"], err = speedup("two workers", in.base, in.pass, in.ref)
		experiments.SetWorkers(1)
		if err != nil {
			return nil, err
		}
	}

	calls := checkpointCalls
	if in.smoke {
		calls = 5
	}
	return notes, checkpointCosts(env, calls, in.m)
}

// checkpointCosts builds the full co-run platform (mesh, caches, cores,
// RCUs and CPM with a kernel mid-flight), warms it to the sweep
// checkpoint boundary, and times calls Takes, Restores and pooled
// Forks of it.
func checkpointCosts(env passEnv, calls int, m map[string]float64) error {
	leg, err := buildCMPLeg(passEnv{}, noc.SnackPlatform(4, 4, true), traffic.Scale(traffic.LULESH(), 0.25))
	if err != nil {
		return err
	}
	plat, err := core.AttachToSystem(leg.eng, leg.sys, core.DefaultPlatformConfig())
	if err != nil {
		return err
	}
	prog, err := experiments.CompileKernel(cpu.KernelReduction, experiments.DefaultKernelDims(), 16, experiments.Seed)
	if err != nil {
		return err
	}
	leg.eng.ScheduleAfter(1, func() {
		plat.CPM.Submit(prog, leg.eng.Cycle(), func(*core.Result) {})
	})
	leg.eng.Run(experiments.WarmupCycles)
	tgt := checkpoint.Target{Eng: leg.eng, Net: leg.net, Sys: leg.sys, Work: leg.work, Plat: plat}

	perCall := func(name string, fn func()) (passCost, error) {
		end := env.tr.start(name)
		defer end()
		return timed(func() error {
			for i := 0; i < calls; i++ {
				fn()
			}
			return nil
		})
	}
	n := float64(calls)
	cost, _ := perCall("checkpoint.take", func() { checkpoint.Take(tgt) })
	m["checkpoint.take_s"] = cost.WallS / n
	st := checkpoint.Take(tgt)
	st.Restore() // the first restore sizes the state's arena
	cost, _ = perCall("checkpoint.restore", st.Restore)
	m["checkpoint.restore_s"] = cost.WallS / n
	m["checkpoint.restore_mb"] = cost.AllocMB / n
	pool := checkpoint.NewPool(1)
	pool.Seal("warmed", tgt, nil).Release()
	cost, _ = perCall("checkpoint.fork", func() {
		e := pool.Get("warmed")
		e.Fork()
		e.Release()
	})
	m["checkpoint.fork_s"] = cost.WallS / n
	return nil
}
