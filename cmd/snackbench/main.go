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
	"os"
	"strings"

	"snacknoc/internal/cli"
	"snacknoc/internal/cpu"
	"snacknoc/internal/experiments"
	"snacknoc/internal/traffic"
)

func main() {
	c := cli.New("snackbench", cli.Sweep|cli.Scale|cli.Priority|cli.Observe|cli.Profile)
	exp := flag.String("exp", "", "experiment to run (tableI, tableII, tableV, fig1, fig2, fig3, fig9, fig10, fig11, fig12, fig13, corun, all)")
	benchList := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 16)")
	c.Start()
	if *exp == "" {
		cli.Usage()
	}
	benches := traffic.All()
	if *benchList != "" {
		benches = nil
		for _, name := range strings.Split(*benchList, ",") {
			p := traffic.ByName(strings.TrimSpace(name))
			if p == nil {
				cli.Fatalf("unknown benchmark %q", name)
			}
			benches = append(benches, p)
		}
	}

	scale := experiments.Scale(c.Scale)
	dims := experiments.DefaultKernelDims()
	run := func(name string) {
		check := func(err error) {
			if err != nil {
				cli.Fatalf("%s: %v", name, err)
			}
		}
		switch name {
		case "tableI":
			experiments.RenderTableI(os.Stdout, experiments.TableI())
		case "tableII":
			experiments.RenderTableII(os.Stdout, experiments.TableII())
		case "tableV":
			experiments.RenderTableV(os.Stdout, experiments.TableV())
		case "fig1":
			res, err := experiments.RunFig1(benches, scale)
			check(err)
			experiments.RenderFig1(os.Stdout, res)
		case "fig2":
			res, err := experiments.RunFig2(scale)
			check(err)
			experiments.RenderFig2(os.Stdout, res)
		case "fig3":
			res, err := experiments.RunFig3(scale)
			check(err)
			experiments.RenderFig3(os.Stdout, res)
		case "fig9":
			res, err := experiments.RunFig9(dims, cpu.DefaultCPUConfig())
			check(err)
			experiments.RenderFig9(os.Stdout, res)
		case "fig10":
			experiments.RenderFig10(os.Stdout, experiments.Fig10())
		case "fig11", "corun":
			res, err := experiments.RunCoRun(experiments.CoRunSpec{
				Bench: traffic.LULESH(), Kernel: cpu.KernelSPMV, Dims: dims,
				Width: 4, Height: 4, Priority: c.Priority, Scale: scale,
			})
			check(err)
			experiments.RenderFig11(os.Stdout, res)
		case "fig12":
			kernels := cpu.Kernels()
			res, err := experiments.RunFig12(benches, kernels, dims, scale, []bool{false, true})
			check(err)
			experiments.RenderFig12(os.Stdout, res, kernels)
		case "fig13":
			res, err := experiments.RunFig13(benches, dims, scale)
			check(err)
			experiments.RenderFig13(os.Stdout, res, benches)
		default:
			cli.Fatalf("unknown experiment %q", name)
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
	c.Finish()
}
