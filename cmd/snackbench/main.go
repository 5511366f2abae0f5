// Command snackbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded results).
//
// Usage:
//
//	snackbench -exp tableI|tableII|tableV|fig1|fig2|fig3|fig9|fig10|fig11|fig12|fig13|corun|all
//	snackbench -exp fig12 -scale 0.5          # faster, noisier
//	snackbench -exp fig1  -benchmarks FMM,Radix
//	snackbench -exp fig2  -trace fig2.json    # flit-lifecycle trace for Perfetto
//	snackbench -exp fig2  -metrics fig2-metrics.json
//
// Output is plain text shaped like the paper's artifacts: one table or
// one data series per figure panel.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/traffic"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (tableI, tableII, tableV, fig1, fig2, fig3, fig9, fig10, fig11, fig12, fig13, corun, all)")
	scale := flag.Float64("scale", 1.0, "benchmark instruction-budget scale (1.0 = reference)")
	benchList := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 16)")
	priority := flag.Bool("priority", true, "priority arbitration for co-run experiments")
	jobs := flag.Int("j", 0, "parallel sweep workers (0 = all CPUs, 1 = serial)")
	shards := flag.Int("shards", 0, "simulation-kernel shards per mesh (<=1 = serial; results are identical for any value)")
	warm := flag.Bool("warm-sweeps", false, "fork checkpointed baseline platforms and memoize zero-load legs across sweep cells (byte-identical output, faster fig12/fig13; ignored while -trace/-metrics are active)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a pprof goroutine-blocking profile to this file on exit (shard-barrier waits)")
	mutexprofile := flag.String("mutexprofile", "", "write a pprof contended-mutex profile to this file on exit")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of every simulation to this file")
	traceLast := flag.Int("trace-last", 0, "with -trace, keep only the newest N events per simulation")
	metricsPath := flag.String("metrics", "", "write metrics snapshots of every simulation to this file (.csv for CSV)")
	attribOn := flag.Bool("attrib", false, "attach cycle-attribution counters to every simulation and print per-run bottleneck reports to stderr")
	attribInterval := flag.Int64("attrib-interval", 0, "with -attrib, sample windowed per-reason deltas every N cycles (exported as attrib.series.* and as trace counter tracks)")
	flag.Parse()
	experiments.SetWorkers(*jobs)
	experiments.SetShards(*shards)
	experiments.SetWarmSweeps(*warm)

	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *traceLast < 0 {
		fatalf("-trace-last requires a non-negative count")
	}
	if *traceLast > 0 && *tracePath == "" {
		fatalf("-trace-last requires -trace")
	}
	if *tracePath != "" {
		experiments.EnableTracing(*traceLast)
	}
	if *metricsPath != "" {
		experiments.EnableMetrics()
	}
	if *attribInterval < 0 {
		fatalf("-attrib-interval requires a non-negative cycle count")
	}
	if *attribInterval != 0 && !*attribOn {
		fatalf("-attrib-interval requires -attrib")
	}
	if *attribOn {
		experiments.EnableAttribution(*attribInterval)
	}
	stop, err := experiments.StartProfiling(experiments.ProfileSpec{
		CPU: *cpuprofile, Mem: *memprofile, Block: *blockprofile, Mutex: *mutexprofile,
	})
	if err != nil {
		fatalf("%v", err)
	}
	stopProf = stop
	defer stopProf()
	benches := traffic.All()
	if *benchList != "" {
		benches = nil
		for _, name := range strings.Split(*benchList, ",") {
			p := traffic.ByName(strings.TrimSpace(name))
			if p == nil {
				fatalf("unknown benchmark %q", name)
			}
			benches = append(benches, p)
		}
	}

	run := func(name string) {
		switch name {
		case "tableI":
			experiments.RenderTableI(os.Stdout, experiments.TableI())
		case "tableII":
			experiments.RenderTableII(os.Stdout, experiments.TableII())
		case "tableV":
			experiments.RenderTableV(os.Stdout, experiments.TableV())
		case "fig1":
			fig1(benches, experiments.Scale(*scale))
		case "fig2":
			fig2(experiments.Scale(*scale))
		case "fig3":
			fig3(experiments.Scale(*scale))
		case "fig9":
			fig9()
		case "fig10":
			experiments.RenderFig10(os.Stdout, experiments.Fig10())
		case "fig11", "corun":
			fig11(experiments.Scale(*scale), *priority)
		case "fig12":
			fig12(benches, experiments.Scale(*scale))
		case "fig13":
			fig13(benches, experiments.Scale(*scale))
		default:
			fatalf("unknown experiment %q", name)
		}
	}
	if *exp == "all" {
		for _, name := range []string{"tableI", "tableII", "tableV", "fig10", "fig9",
			"fig2", "fig3", "fig1", "fig11", "fig12", "fig13"} {
			run(name)
		}
	} else {
		run(*exp)
	}
	if *tracePath != "" {
		if err := experiments.WriteTrace(*tracePath); err != nil {
			fatalf("%v", err)
		}
	}
	if *metricsPath != "" {
		if err := experiments.WriteMetrics(*metricsPath); err != nil {
			fatalf("%v", err)
		}
	}
	if *attribOn {
		for _, s := range experiments.AttribSummaries() {
			s.Summary.Render(os.Stderr, s.Label)
			fmt.Fprintln(os.Stderr)
		}
	}
}

// stopProf writes out the profiles StartProfiling began. fatalf runs it
// because os.Exit skips main's deferred call, and a run that fails is
// the one whose profile is wanted.
var stopProf = func() {}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "snackbench: "+format+"\n", args...)
	stopProf()
	os.Exit(1)
}

func fig9() {
	res, err := experiments.RunFig9(experiments.DefaultKernelDims(), cpu.DefaultCPUConfig())
	if err != nil {
		fatalf("fig9: %v", err)
	}
	experiments.RenderFig9(os.Stdout, res)
}

func fig2(scale experiments.Scale) {
	res, err := experiments.RunFig2(scale)
	if err != nil {
		fatalf("fig2: %v", err)
	}
	experiments.RenderFig2(os.Stdout, res)
}

func fig3(scale experiments.Scale) {
	res, err := experiments.RunFig3(scale)
	if err != nil {
		fatalf("fig3: %v", err)
	}
	experiments.RenderFig3(os.Stdout, res)
}

func fig1(benches []*traffic.Profile, scale experiments.Scale) {
	res, err := experiments.RunFig1(benches, scale)
	if err != nil {
		fatalf("fig1: %v", err)
	}
	experiments.RenderFig1(os.Stdout, res)
}

func fig11(scale experiments.Scale, priority bool) {
	r, err := experiments.RunCoRun(experiments.CoRunSpec{
		Bench: traffic.LULESH(), Kernel: cpu.KernelSPMV,
		Dims: experiments.DefaultKernelDims(), Width: 4, Height: 4,
		Priority: priority, Scale: scale,
	})
	if err != nil {
		fatalf("fig11: %v", err)
	}
	experiments.RenderFig11(os.Stdout, r)
}

func fig12(benches []*traffic.Profile, scale experiments.Scale) {
	kernels := cpu.Kernels()
	res, err := experiments.RunFig12(benches, kernels, experiments.DefaultKernelDims(), scale, []bool{false, true})
	if err != nil {
		fatalf("fig12: %v", err)
	}
	experiments.RenderFig12(os.Stdout, res, kernels)
}

func fig13(benches []*traffic.Profile, scale experiments.Scale) {
	res, err := experiments.RunFig13(benches, experiments.DefaultKernelDims(), scale)
	if err != nil {
		fatalf("fig13: %v", err)
	}
	experiments.RenderFig13(os.Stdout, res, benches)
}
