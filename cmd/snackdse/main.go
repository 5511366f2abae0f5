// Command snackdse runs the design-space exploration (ROADMAP item 5):
// a grid search over router buffer depth × channel width × VC count ×
// RCU count, each cell scored on measured kernel speedup, zero-load
// snack-vnet latency, and modeled NoC power and area, reported as a
// deterministic Pareto frontier table + figure.
//
// Usage:
//
//	snackdse                                   # default 256-cell grid
//	snackdse -grid buf=1,2,4:chan=16,32:vc=2,4:rcu=16 -j 4
//	snackdse -kernels SGEMM,MAC -dims smoke -out results/dse.txt
//
// The rendered report is byte-identical for any -j value; the number of
// kernel legs simulated, the platform builds and resets, and wall-clock
// throughput (cells/second) go to stderr only.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"snacknoc/internal/cli"
	"snacknoc/internal/experiments"
)

func main() {
	c := cli.New("snackdse", cli.Jobs|cli.Priority|cli.Metrics|cli.Attrib)
	grid := flag.String("grid", "", "axes as buf=..:chan=..:vc=..:rcu=.. with comma-separated values (default: the 256-cell standard grid)")
	kernelList := flag.String("kernels", "", "comma-separated kernel subset (default: all four Table III kernels)")
	dims := flag.String("dims", "default", "kernel input sizes: default, paper, or smoke")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	c.Start()

	cfg := experiments.DefaultDSEConfig()
	cfg.Priority = c.Priority
	var err error
	if *grid != "" {
		if cfg.Axes, err = experiments.ParseGrid(*grid); err != nil {
			cli.Fatalf("%v", err)
		}
	}
	if cfg.Dims, err = experiments.KernelDimsByName(*dims); err != nil {
		cli.Fatalf("%v", err)
	}
	if *kernelList != "" {
		cfg.Kernels = nil
		for _, name := range strings.Split(*kernelList, ",") {
			k, err := experiments.KernelByName(strings.TrimSpace(name))
			if err != nil {
				cli.Fatalf("%v", err)
			}
			cfg.Kernels = append(cfg.Kernels, k)
		}
	}

	nCells := cfg.Axes.Cells()
	fmt.Fprintf(os.Stderr, "snackdse: %d cells x %d kernels, %d workers\n",
		nCells, len(cfg.Kernels), c.Run.WorkerCount())
	start := time.Now()
	res, err := c.Run.RunDSE(cfg)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	wall := time.Since(start)

	var buf bytes.Buffer
	experiments.RenderDSE(&buf, res)
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			cli.Fatalf("%v", err)
		}
	} else {
		os.Stdout.Write(buf.Bytes())
	}
	fmt.Fprintf(os.Stderr,
		"snackdse: %d cells x %d kernels: %d legs simulated (cells differing only in channel width share theirs)\n",
		nCells, len(cfg.Kernels), res.Legs)
	fmt.Fprintf(os.Stderr,
		"snackdse: %d cells in %.2fs (%.2f cells/s); %d platform builds, %d resets avg %.0f ns\n",
		nCells, wall.Seconds(), float64(nCells)/wall.Seconds(),
		res.PoolMisses, res.Forks, res.AvgForkNs)
	c.Finish()
}
