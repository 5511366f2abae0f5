package experiments

import (
	"fmt"

	"snacknoc/internal/cache"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// Scale globally trades simulation time for fidelity: it multiplies the
// per-core instruction budgets of every benchmark run. 1.0 is the
// reference scale documented in EXPERIMENTS.md.
type Scale float64

// Seed is the deterministic seed all experiment runs use.
const Seed uint64 = 2020

// MaxRunCycles caps every simulation this package and the commands run.
// Each completes orders of magnitude sooner; one that reaches the cap
// has wedged and fails with an error instead of spinning on.
const MaxRunCycles = 2_000_000_000

// sampleInterval is the utilization sampling window. The paper samples
// 10 K-cycle windows over multi-billion-cycle runs; scaled runs use 2 K
// windows to retain comparable series lengths.
const sampleInterval = 2000

// warmupSkip is the leading fraction of each utilization series excluded
// from steady-state medians (the paper's full-length traces make warmup
// negligible; scaled runs must drop it explicitly).
const warmupSkip = 0.25

// BenchRun is the outcome of executing one benchmark on one NoC.
type BenchRun struct {
	Benchmark string
	NoC       string
	Runtime   int64
	// XbarMedianPct is the median (across routers) of per-router
	// steady-state sample medians, the Fig 2a headline statistic.
	XbarMedianPct float64
	XbarMaxPct    float64
	// LinkMedianPct/LinkMaxPct are the analogous Fig 2b link statistics.
	LinkMedianPct float64
	LinkMaxPct    float64
	// XbarSeries is the per-router crossbar usage over time (Fig 2a).
	XbarSeries [][]float64
	// LinkSeries is the per-router mean mesh-link usage over time.
	LinkSeries [][]float64
	// BufferCDF is the aggregated input-buffer occupancy CDF (Fig 3).
	BufferCDF []stats.CDFPoint
	L1HitRate float64
	L2HitRate float64
}

// BufferSummary returns the share of cycles the input buffers sat empty
// and their 99th-percentile occupancy, both in percent (Fig 3).
func (r *BenchRun) BufferSummary() (zeroPct, p99Pct float64) {
	return cdfSummary(r.BufferCDF)
}

// RunBenchmark executes one Table III benchmark to completion on the
// given NoC configuration and collects the paper's measurements.
func (s RunSpec) RunBenchmark(cfg *noc.Config, prof *traffic.Profile, scale Scale) (*BenchRun, error) {
	st, err := newCMPStack(cfg, prof, scale)
	if err != nil {
		return nil, err
	}
	obs := s.Observe(prof.Name+"@"+cfg.Name, st)
	rt, ok := cpu.Run(st.Eng, st.Work, MaxRunCycles)
	if !ok {
		return nil, fmt.Errorf("experiments: %s on %s did not complete", prof.Name, cfg.Name)
	}
	obs.Record()
	return collect(prof.Name, cfg.Name, rt, st.Net, st.Sys), nil
}

func collect(bench, nocName string, rt int64, net *noc.Network, sys *cache.System) *BenchRun {
	r := &BenchRun{Benchmark: bench, NoC: nocName, Runtime: rt}
	r.XbarSeries, r.LinkSeries = xbarSeries(net), meanLinkSeries(net)
	r.XbarMedianPct, r.XbarMaxPct = seriesSummary(r.XbarSeries)
	r.LinkMedianPct, r.LinkMaxPct = seriesSummary(r.LinkSeries)
	bufHist := stats.NewHistogram(1.0, 20)
	for _, router := range net.Routers() {
		for b, c := range router.BufferHistogram().Buckets() {
			// Re-observe at the bucket's midpoint to aggregate.
			bufHist.ObserveN((float64(b)+0.5)/20, c)
		}
	}
	r.BufferCDF = bufHist.CDF()
	r.L1HitRate = sys.L1HitRate()
	r.L2HitRate = sys.L2HitRate()
	return r
}

// carve returns one full-capacity window of n(r) samples per router,
// all cut from a single allocation.
func carve(routers []*noc.Router, n func(*noc.Router) int) [][]float64 {
	total := 0
	for _, r := range routers {
		total += n(r)
	}
	slab, out := make([]float64, total), make([][]float64, len(routers))
	for i, r := range routers {
		k := n(r)
		out[i], slab = slab[:k:k], slab[k:]
	}
	return out
}

// xbarSeries returns each router's sampled crossbar usage (Fig 2a).
func xbarSeries(net *noc.Network) [][]float64 {
	s, routers := net.Samples(), net.Routers()
	out := carve(routers, func(r *noc.Router) int { return s.Windows(int(r.ID())) })
	for i, r := range routers {
		for k := range out[i] {
			out[i][k] = s.At(int(r.ID()), k)
		}
	}
	return out
}

// seriesSummary returns the median across routers of each series'
// steady-state median, and the largest steady-state maximum, as
// percentages. It leaves the series as they are.
func seriesSummary(series [][]float64) (medianPct, maxPct float64) {
	medians := make([]float64, 0, len(series))
	var scratch []float64
	for _, s := range series {
		med, max := seriesStats(s, &scratch)
		medians = append(medians, med)
		if max > maxPct {
			maxPct = max
		}
	}
	return stats.MedianInPlace(medians), maxPct
}

// seriesStats returns the steady-state median and maximum of a sample
// series, as percentages. The median sorts a copy of the tail in
// *scratch, which it grows as needed, so s keeps its order.
func seriesStats(s []float64, scratch *[]float64) (medianPct, maxPct float64) {
	if len(s) == 0 {
		return 0, 0
	}
	from := int(float64(len(s)) * warmupSkip)
	tail := s[from:]
	if len(tail) == 0 {
		tail = s
	}
	max := 0.0
	for _, v := range tail {
		if v > max {
			max = v
		}
	}
	*scratch = append((*scratch)[:0], tail...)
	return stats.MedianInPlace(*scratch) * 100, max * 100
}

// meanLinkSeries averages the sampled usage of each router's mesh
// output links (the per-router lines of Fig 2b); a router without one
// has none.
func meanLinkSeries(net *noc.Network) [][]float64 {
	s, routers := net.Samples(), net.Routers()
	links := func(r *noc.Router) (cols [4]int, n int) {
		for d := noc.North; d <= noc.West; d++ {
			if c := r.LinkColumn(d); c >= 0 {
				cols[n], n = c, n+1
			}
		}
		return cols, n
	}
	out := carve(routers, func(r *noc.Router) int {
		_, n := links(r)
		return min(n, 1) * s.Windows(int(r.ID()))
	})
	for i, r := range routers {
		all, n := links(r)
		cols := all[:n]
		if n == 0 {
			out[i] = nil
			continue
		}
		for k := range out[i] {
			sum := 0.0
			for _, c := range cols {
				sum += s.At(c, k)
			}
			out[i][k] = sum / float64(len(cols))
		}
	}
	return out
}

// CoRunSpec describes one multiprogram experiment: a CMP benchmark
// executing on the cores while a SnackNoC kernel runs continually on the
// NoC (the Fig 11/12/13 methodology).
type CoRunSpec struct {
	Bench    *traffic.Profile
	Kernel   cpu.KernelName
	Dims     KernelDims
	Width    int
	Height   int
	Priority bool
	Scale    Scale
}

// CoRunResult reports both sides of the interference experiment.
type CoRunResult struct {
	Benchmark string
	Kernel    cpu.KernelName
	Priority  bool
	// BaselineRuntime is the benchmark alone; Runtime is with kernels.
	BaselineRuntime int64
	Runtime         int64
	// KernelRuns counts completed kernel executions during the co-run;
	// KernelCyclesAvg is their mean latency, and ZeroLoadCycles the same
	// kernel's latency on an otherwise idle platform.
	KernelRuns      int
	KernelCyclesAvg float64
	ZeroLoadCycles  int64
	// XbarMedianPct is the co-run steady-state crossbar median (Fig 11).
	XbarMedianPct float64
	XbarSeries    [][]float64
	Offloaded     int64
}

// ImpactPct is the benchmark slowdown caused by the co-running kernels.
func (r *CoRunResult) ImpactPct() float64 {
	if r.BaselineRuntime == 0 {
		return 0
	}
	return (float64(r.Runtime) - float64(r.BaselineRuntime)) / float64(r.BaselineRuntime) * 100
}

// KernelSlowdownPct is how much the CMP traffic slowed the kernels
// relative to zero load (§V-C reports ≤3.86%).
func (r *CoRunResult) KernelSlowdownPct() float64 {
	if r.ZeroLoadCycles == 0 || r.KernelRuns == 0 {
		return 0
	}
	return (r.KernelCyclesAvg - float64(r.ZeroLoadCycles)) / float64(r.ZeroLoadCycles) * 100
}

// RunCoRun executes the full interference experiment: the benchmark
// alone, the kernel alone at zero load, and the two together.
func (s RunSpec) RunCoRun(spec CoRunSpec) (*CoRunResult, error) {
	return s.runCoRun(spec, s.newLegMemo())
}

// runCoRun is RunCoRun with the calling sweep's leg memo (nil: every
// leg runs).
func (s RunSpec) runCoRun(spec CoRunSpec, memo *legMemo) (*CoRunResult, error) {
	if spec.Width == 0 {
		spec.Width, spec.Height = 4, 4
	}
	nRCU := spec.Width * spec.Height
	prog, err := CompileKernel(spec.Kernel, spec.Dims, nRCU, Seed)
	if err != nil {
		return nil, err
	}
	res := &CoRunResult{Benchmark: spec.Bench.Name, Kernel: spec.Kernel, Priority: spec.Priority}
	cell := fmt.Sprintf("%sx%s", spec.Bench.Name, spec.Kernel)
	if spec.Priority {
		cell += "+P"
	}
	cell += fmt.Sprintf("@%dx%d", spec.Width, spec.Height)

	// Leg 1: benchmark alone on the snack-capable NoC (RCUs present but
	// idle), the Fig 12 baseline.
	base := baseKey{bench: spec.Bench, w: spec.Width, h: spec.Height, pri: spec.Priority, scale: spec.Scale}
	res.BaselineRuntime, err = memo.leg(base, func() (int64, error) {
		rt, _, err := s.runCoRunLeg(spec, nil, nil, cell+"/base")
		return rt, err
	})
	if err != nil {
		return nil, err
	}

	// Leg 2: kernel alone at zero load.
	zero := zeroKey{kernel: spec.Kernel, dims: spec.Dims, w: spec.Width, h: spec.Height, pri: spec.Priority}
	res.ZeroLoadCycles, err = memo.leg(zero, func() (int64, error) {
		r, _, err := s.RunKernel(cell+"/zero", prog, spec.Width, spec.Height, spec.Priority)
		if err != nil {
			return 0, fmt.Errorf("experiments: zero-load %s: %w", spec.Kernel, err)
		}
		return r.Cycles(), nil
	})
	if err != nil {
		return nil, err
	}

	// Leg 3: co-run.
	rt, net, err := s.runCoRunLeg(spec, prog, res, cell+"/corun")
	if err != nil {
		return nil, err
	}
	res.Runtime = rt
	res.XbarSeries = xbarSeries(net)
	res.XbarMedianPct, _ = seriesSummary(res.XbarSeries)
	return res, nil
}

// runCoRunLeg runs the benchmark on the snack-capable NoC, with the
// kernel resubmitted continually when prog is non-nil; its stats then
// accumulate into out. It returns the benchmark's runtime and the
// network it ran on.
func (s RunSpec) runCoRunLeg(spec CoRunSpec, prog *core.Program, out *CoRunResult, label string) (int64, *noc.Network, error) {
	st, err := newCMPStack(noc.SnackPlatform(spec.Width, spec.Height, spec.Priority), spec.Bench, spec.Scale)
	if err != nil {
		return 0, nil, err
	}
	if prog != nil {
		st.Plat, err = core.AttachToSystem(st.Eng, st.Sys, core.DefaultPlatformConfig())
		if err != nil {
			return 0, nil, err
		}
		eng, plat, w := st.Eng, st.Plat, st.Work
		var kernelCycles int64
		var resubmit func(r *core.Result)
		resubmit = func(r *core.Result) {
			if r != nil {
				out.KernelRuns++
				kernelCycles += r.Cycles()
				out.KernelCyclesAvg = float64(kernelCycles) / float64(out.KernelRuns)
			}
			if w.Done() {
				return
			}
			eng.ScheduleAfter(1, func() {
				if !plat.CPM.Submit(prog, eng.Cycle(), resubmit) {
					panic("experiments: CPM busy at resubmission")
				}
			})
		}
		resubmit(nil)
	}
	obs := s.Observe(label, st)
	if _, ok := cpu.Run(st.Eng, st.Work, MaxRunCycles); !ok {
		return 0, nil, fmt.Errorf("experiments: co-run %s did not complete", spec.Bench.Name)
	}
	if st.Plat != nil {
		out.Offloaded = st.Plat.CPM.Offloaded()
	}
	obs.Record()
	// Interference is measured on the mean per-core finish time; see
	// cpu.Workload.MeanFinish for why the maximum is too noisy at
	// reproduction scale.
	return int64(st.Work.MeanFinish() * 16), st.Net, nil
}
