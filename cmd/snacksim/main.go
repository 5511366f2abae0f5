// Command snacksim drives a single simulation: either one Table III
// benchmark on a chosen NoC configuration (reporting the utilization
// measurements of §II-A), or one linear-algebra kernel on a standalone
// SnackNoC platform (reporting the §V-B kernel statistics).
//
// Usage:
//
//	snacksim -bench LULESH -noc DAPPER -scale 0.5
//	snacksim -kernel SGEMM -mesh 4x4
//	snacksim -bench Radix -kernel SPMV          # co-run both
//	snacksim -synthetic uniform -noc BiNoCHS    # load-latency curve
//	snacksim -kernel SGEMM -trace sgemm.json -metrics sgemm-metrics.json
package main

import (
	"flag"
	"fmt"
	"strings"

	"snacknoc/internal/cli"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/noc"
	"snacknoc/internal/traffic"
)

func main() {
	c := cli.New("snacksim", cli.Jobs|cli.Scale|cli.Priority|cli.Observe|cli.Profile)
	bench := flag.String("bench", "", "Table III benchmark to run on the CMP cores")
	synthetic := flag.String("synthetic", "", "synthetic pattern: uniform, transpose, bitcomp, hotspot")
	kernel := flag.String("kernel", "", "SnackNoC kernel: SGEMM, Reduction, MAC, SPMV")
	nocName := flag.String("noc", "DAPPER", "NoC for benchmark-only runs: DAPPER, AxNoC, BiNoCHS")
	mesh := flag.String("mesh", "4x4", "mesh dimensions WxH")
	c.Start()

	w, h, err := experiments.ParseMesh(*mesh)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	switch {
	case *synthetic != "":
		loadLatency(*synthetic, *nocName, w, h)
	case *bench != "" && *kernel != "":
		corun(c.Run, *bench, kernelByName(*kernel), w, h, c.Priority, c.Scale)
	case *bench != "":
		benchmark(c.Run, *bench, *nocName, w, h, c.Scale)
	case *kernel != "":
		runKernel(c.Run, kernelByName(*kernel), w, h, c.Priority)
	default:
		cli.Usage()
	}
	c.Finish()
}

func kernelByName(name string) cpu.KernelName {
	k, err := experiments.KernelByName(name)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	return k
}

func nocConfig(name string, w, h int) *noc.Config {
	switch strings.ToLower(name) {
	case "dapper":
		return noc.DAPPER(w, h)
	case "axnoc":
		return noc.AxNoC(w, h)
	case "binochs":
		return noc.BiNoCHS(w, h)
	}
	cli.Fatalf("unknown NoC %q", name)
	return nil
}

func benchmark(spec experiments.RunSpec, name, nocName string, w, h int, scale float64) {
	prof := traffic.ByName(name)
	if prof == nil {
		cli.Fatalf("unknown benchmark %q; available: %v", name, benchNames())
	}
	cfg := nocConfig(nocName, w, h)
	fmt.Printf("running %s on %s (%dx%d mesh, scale %.2f)...\n", name, cfg.Name, w, h, scale)
	run, err := spec.RunBenchmark(cfg, prof, experiments.Scale(scale))
	if err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Printf("runtime:                 %d cycles\n", run.Runtime)
	fmt.Printf("crossbar median / peak:  %5.2f%% / %5.2f%%\n", run.XbarMedianPct, run.XbarMaxPct)
	fmt.Printf("link median / peak:      %5.2f%% / %5.2f%%\n", run.LinkMedianPct, run.LinkMaxPct)
	fmt.Printf("L1 hit rate:             %5.3f\n", run.L1HitRate)
	fmt.Printf("L2 hit rate:             %5.3f\n", run.L2HitRate)
	zero, p99 := run.BufferSummary()
	fmt.Printf("buffers empty:           %5.2f%% of cycles (p99 occupancy %.1f%%)\n", zero, p99)
}

func runKernel(spec experiments.RunSpec, k cpu.KernelName, w, h int, priority bool) {
	prog, err := experiments.CompileKernel(k, experiments.DefaultKernelDims(), w*h, experiments.Seed)
	if err != nil {
		cli.Fatalf("compile: %v", err)
	}
	fmt.Printf("running %s on a zero-load %dx%d SnackNoC (%d entries)...\n",
		k, w, h, len(prog.Entries))
	res, plat, err := spec.RunKernel(fmt.Sprintf("kernel/%s@%dx%d", k, w, h), prog, w, h, priority)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Printf("kernel latency:      %d cycles (%.2f cycles/entry)\n",
		res.Cycles(), float64(res.Cycles())/float64(len(prog.Entries)))
	fmt.Printf("instructions issued: %d\n", plat.CPM.Issued())
	fmt.Printf("results:             %d values\n", len(res.Values))
	var captured int64
	maxBuf := 0
	for _, r := range plat.RCUs {
		captured += r.Captured()
		if r.MaxBuffered() > maxBuf {
			maxBuf = r.MaxBuffered()
		}
	}
	fmt.Printf("token captures:      %d\n", captured)
	fmt.Printf("max RCU buffering:   %d instructions\n", maxBuf)
	fmt.Printf("tokens offloaded:    %d\n", plat.CPM.Offloaded())
}

func corun(spec experiments.RunSpec, benchName string, k cpu.KernelName, w, h int, priority bool, scale float64) {
	prof := traffic.ByName(benchName)
	if prof == nil {
		cli.Fatalf("unknown benchmark %q; available: %v", benchName, benchNames())
	}
	fmt.Printf("co-running %s with %s on a %dx%d mesh (priority=%v, scale %.2f)...\n",
		benchName, k, w, h, priority, scale)
	r, err := spec.RunCoRun(experiments.CoRunSpec{
		Bench: prof, Kernel: k,
		Dims: experiments.DefaultKernelDims(), Width: w, Height: h,
		Priority: priority, Scale: experiments.Scale(scale),
	})
	if err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Printf("benchmark impact:    %+.3f%%\n", r.ImpactPct())
	fmt.Printf("kernel runs:         %d (avg %.0f cycles)\n", r.KernelRuns, r.KernelCyclesAvg)
	fmt.Printf("kernel slowdown:     %+.2f%% over zero load (%d cycles)\n",
		r.KernelSlowdownPct(), r.ZeroLoadCycles)
	fmt.Printf("co-run xbar median:  %.2f%%\n", r.XbarMedianPct)
	fmt.Printf("tokens offloaded:    %d\n", r.Offloaded)
}

// loadLatency sweeps injection rates for a synthetic pattern and prints
// the classic NoC load-latency characterization curve.
func loadLatency(patName, nocName string, w, h int) {
	var pat noc.Pattern
	switch strings.ToLower(patName) {
	case "uniform":
		pat = noc.UniformRandom()
	case "transpose":
		pat = noc.Transpose()
	case "bitcomp":
		pat = noc.BitComplement()
	case "hotspot":
		pat = noc.Hotspot(0, 30)
	default:
		cli.Fatalf("unknown pattern %q", patName)
	}
	cfg := nocConfig(nocName, w, h)
	rates := []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.45, 0.60}
	fmt.Printf("load-latency curve: %s traffic on %s (%dx%d), %d-byte packets\n",
		pat.Name, cfg.Name, w, h, noc.DataBytes)
	pts, err := noc.LoadLatencyCurve(cfg, pat, rates, noc.DataBytes, 30000, 3)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	fmt.Printf("%8s %12s %14s %10s\n", "rate", "avg-lat(cy)", "thruput(pkt/n/cy)", "saturated")
	for _, p := range pts {
		fmt.Printf("%8.2f %12.1f %14.3f %10v\n", p.Rate, p.AvgLatency, p.Throughput, p.Saturated)
	}
}

func benchNames() []string {
	var names []string
	for _, p := range traffic.All() {
		names = append(names, p.Name)
	}
	return names
}
