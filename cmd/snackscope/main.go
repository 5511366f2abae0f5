// Command snackscope inspects what the other commands write and renders
// cycle-attribution bottleneck reports (DESIGN.md §13). Its two report
// modes share one fold path (attrib.Summarize):
//
//	snackscope -metrics run-metrics.json      # fold a dump written with -attrib -metrics
//	snackscope -kernel SGEMM -mesh 4x4        # run a kernel live and report it
//
// The report is a pure function of the counters, so for a fixed kernel,
// mesh, and dims the output is byte-identical across runs, -shards
// values, and machines — scripts/ci.sh pins a golden copy.
//
// Two subcommands check the files themselves:
//
//	snackscope check-trace trace.json [more.json ...]  # validate -trace dumps
//	snackscope diff [-tol 1e-9] before.json after.json # compare -metrics dumps
//
// check-trace checks well-formed JSON, a traceEvents array and the
// per-phase required fields on every event, and warns when a -trace-last
// ring dropped events. diff matches snapshots by label and metrics by
// name and prints every divergence beyond -tol. Both exit 0 when the
// files check out, 1 when one is invalid or they differ, and 2 on a
// usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"snacknoc/internal/attrib"
	"snacknoc/internal/cli"
	"snacknoc/internal/experiments"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"check-trace": checkTrace,
	"diff":        diff,
}

func main() {
	if len(os.Args) > 1 {
		if sub := subcommands[os.Args[1]]; sub != nil {
			os.Exit(sub(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	c := cli.New("snackscope", cli.Shards|cli.Priority)
	metricsPath := flag.String("metrics", "", "fold attribution counters out of this metrics JSON (written with -attrib -metrics)")
	kernel := flag.String("kernel", "", "run this SnackNoC kernel live: SGEMM, Reduction, MAC, SPMV")
	mesh := flag.String("mesh", "4x4", "mesh dimensions WxH for -kernel")
	dims := flag.String("dims", "default", "kernel input sizes for -kernel: default, paper, or smoke")
	c.Start()
	switch {
	case *metricsPath != "" && *kernel != "":
		cli.Fatalf("-metrics and -kernel are mutually exclusive")
	case *metricsPath != "":
		fromJSON(*metricsPath)
	case *kernel != "":
		fromKernel(*kernel, *mesh, *dims, c.Priority, c.Run)
	default:
		cli.Usage()
	}
	c.Finish()
}

// fromJSON folds every snapshot in a metrics dump that carries
// attribution counters.
func fromJSON(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	snaps, err := stats.ReadSnapshots(data)
	if err != nil {
		cli.Fatalf("%s: %v", path, err)
	}
	reported := 0
	for _, s := range snaps {
		sum := attrib.Summarize(s.Values)
		if len(sum.Layers) == 0 {
			continue
		}
		if reported > 0 {
			fmt.Println()
		}
		sum.Render(os.Stdout, s.Label)
		reported++
	}
	if reported == 0 {
		cli.Fatalf("%s: no attribution counters in any snapshot (was the run made with -attrib?)", path)
	}
}

// fromKernel compiles and runs one kernel on a zero-load standalone
// platform with attribution attached, checks the per-cycle sum
// invariant, and reports.
func fromKernel(name, meshSpec, dimsName string, priority bool, run experiments.RunSpec) {
	w, h, err := experiments.ParseMesh(meshSpec)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	kd, err := experiments.KernelDimsByName(dimsName)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	k, err := experiments.KernelByName(name)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	prog, err := experiments.CompileKernel(k, kd, w*h, experiments.Seed)
	if err != nil {
		cli.Fatalf("compile: %v", err)
	}
	label := fmt.Sprintf("kernel/%s@%dx%d dims=%s", k, w, h, dimsName)
	run.Obs = &experiments.Observer{Attrib: true}
	_, plat, err := run.RunKernel(label, prog, w, h, priority)
	if err != nil {
		cli.Fatalf("%v", err)
	}
	values := run.Obs.Snapshots()[0].Values
	if err := attrib.CheckTotals(values, plat.Eng.Cycle()); err != nil {
		cli.Fatalf("%v", err)
	}
	attrib.Summarize(values).Render(os.Stdout, label)
}

// checkTrace validates Chrome trace-event JSON files written with -trace.
func checkTrace(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: snackscope check-trace trace.json [more.json ...]")
		return 2
	}
	status := 0
	for _, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "snackscope check-trace: %v\n", err)
			status = 2
			continue
		}
		if err := trace.Validate(data); err != nil {
			fmt.Fprintf(stderr, "snackscope check-trace: %s: %v\n", path, err)
			status = max(status, 1)
			continue
		}
		if n := trace.DroppedFromJSON(data); n > 0 {
			fmt.Fprintf(stderr,
				"snackscope check-trace: %s: WARNING: ring dropped %d events (oldest records lost; raise -trace-last)\n",
				path, n)
		}
		fmt.Fprintf(stdout, "snackscope check-trace: %s OK (%d bytes)\n", path, len(data))
	}
	return status
}

// diff structurally compares two metrics-snapshot files written with
// -metrics.
func diff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snackscope diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: snackscope diff [-tol T] a.json b.json") }
	tol := fs.Float64("tol", 0, "absolute tolerance below which values compare equal")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		if err == nil {
			fs.Usage()
		}
		return 2
	}
	var snaps [2][]stats.Snapshot
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "snackscope diff: %v\n", err)
			return 2
		}
		if snaps[i], err = stats.ReadSnapshots(data); err != nil {
			fmt.Fprintf(stderr, "snackscope diff: %s: %v\n", path, err)
			return 2
		}
	}
	lines := stats.DiffSnapshots(snaps[0], snaps[1], *tol)
	for _, l := range lines {
		fmt.Fprintln(stdout, l.String())
	}
	if len(lines) > 0 {
		fmt.Fprintf(stderr, "snackscope diff: %d difference(s) between %s and %s\n",
			len(lines), fs.Arg(0), fs.Arg(1))
		return 1
	}
	fmt.Fprintf(stdout, "snackscope diff: no differences (%d snapshot(s), tol %g)\n", len(snaps[0]), *tol)
	return 0
}
