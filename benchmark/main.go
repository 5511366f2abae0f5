// Command benchmark is the repository's benchmark: five simulator
// workloads, the host cost of each as end-to-end metrics, and a
// per-layer host-time budget measured from outside the simulator.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload W -trace 0 one workload's end-to-end metrics (the driver's form)
//	go run ./benchmark -workload W -trace 1 one workload's per-layer metrics
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -update-digests
//
// See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and print one result line; empty runs all of them")
		seed    = flag.Uint64("seed", defaultSeed, "seed of every input generator the simulator's API lets the benchmark seed")
		seconds = flag.Float64("seconds", defaultSeconds, "how long an untraced run measures (never fewer than 5 passes)")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "one pass at a tenth of the size, no pinned digest")
		strict  = flag.Bool("strict", false, "exit non-zero when the host was too noisy to trust the timings")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for span traces and result files")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		update  = flag.Bool("update-digests", false, "record benchmark/expected/<workload>.digest at the default seed (run from the repository root)")
	)
	flag.Parse()
	opts := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *outDir}
	var err error
	code := 0
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		code, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *update:
		err = updateDigests()
	case *name != "":
		code, err = runOne(*name, opts, *trace != 0, *strict)
	default:
		code, err = runAll(opts, *strict)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// runOne runs one workload in this process and prints the driver's
// result line last.
func runOne(name string, o runOpts, traced, strict bool) (int, error) {
	w := workloadByName(name)
	if w == nil {
		return 0, fmt.Errorf("unknown workload %q", name)
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	d, err := run(w, o)
	if err != nil {
		return 0, err
	}
	if err := d.write(o.outDir); err != nil {
		return 0, err
	}
	for _, e := range d.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", name+":", e)
	}
	for _, n := range d.Notes {
		fmt.Fprintln(os.Stderr, "benchmark:", name+":", n)
	}
	fmt.Println(d.resultLine())
	if strict && d.Noisy {
		return 2, nil
	}
	return 0, nil
}

// hostInfo describes where a result file was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// workloadResult is one workload's untraced and traced runs merged.
type workloadResult struct {
	Name      string                 `json:"name"`
	Digest    string                 `json:"digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Noisy     bool                   `json:"noisy"`
	Observers string                 `json:"untraced_observers"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Notes     []string               `json:"notes,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

// results is the file the all-workloads mode writes and -compare reads.
type results struct {
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}

// runAll runs every workload, each run in a child process of its own
// so that peak_rss_mb and the heap a pass starts from belong to one
// workload, and prints every metric as "workload name unit value".
func runAll(o runOpts, strict bool) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	res := results{
		Host: hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH},
		Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
	}
	code := 0
	for i := range workloads {
		w := &workloads[i]
		wr := workloadResult{Name: w.name}
		for _, traced := range []bool{false, true} {
			d, err := runChild(self, w.name, o, traced)
			if err != nil {
				return 0, err
			}
			wr.Attempted += d.Attempted
			wr.Failed += d.Failed
			wr.Noisy = wr.Noisy || d.Noisy
			wr.Notes = append(wr.Notes, d.Notes...)
			wr.Errors = append(wr.Errors, d.Errors...)
			if traced {
				wr.PerLayer = d.Metrics
			} else {
				wr.EndToEnd, wr.Digest, wr.Observers = d.Metrics, d.Digest, d.Observers
			}
			for _, name := range d.metricNames() {
				v := d.Metrics[name]
				fmt.Printf("%s %s %s %v", w.name, name, v.Unit, v.Value)
				if s := v.Samples; s != nil {
					fmt.Printf(" (min %v max %v n %d)", s.Min, s.Max, s.N)
				}
				fmt.Println()
			}
		}
		fmt.Printf("%s failed_share ratio %v (%d of %d passes); untraced run had %s; digest %s\n",
			w.name, float64(wr.Failed)/float64(max(wr.Attempted, 1)), wr.Failed, wr.Attempted, wr.Observers, wr.Digest)
		for _, n := range wr.Notes {
			fmt.Printf("%s note: %s\n", w.name, n)
		}
		for _, e := range wr.Errors {
			fmt.Printf("%s error: %s\n", w.name, e)
		}
		if wr.Failed > 0 {
			code = 1
		}
		if wr.Noisy {
			fmt.Printf("%s noisy: true\n", w.name)
			if strict && code == 0 {
				code = 2
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return 0, err
	}
	path := filepath.Join(o.outDir, "results.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, err
	}
	fmt.Println("results:", path)
	return code, nil
}

// runChild runs one workload in a child process and reads back the
// detail file it leaves.
func runChild(self, workload string, o runOpts, traced bool) (*runDetail, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	args := []string{"-workload", workload, "-trace", tr, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w\n%s", workload, tr, err, stderr.Bytes())
	}
	data, err := os.ReadFile(detailPath(o.outDir, workload, traced))
	if err != nil {
		return nil, err
	}
	d := new(runDetail)
	if err := json.Unmarshal(data, d); err != nil {
		return nil, fmt.Errorf("%s: %w", detailPath(o.outDir, workload, traced), err)
	}
	return d, nil
}

// updateDigests records every workload's digest at the default seed.
func updateDigests() error {
	for i := range workloads {
		w := &workloads[i]
		pass, err := w.prepare(defaultSeed, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		out, err := pass(passEnv{})
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		path := filepath.Join("benchmark", "expected", w.name+".digest")
		if err := os.WriteFile(path, []byte(out.digest()+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Println(path, out.digest())
	}
	return nil
}
