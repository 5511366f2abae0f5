package experiments

import (
	"sort"
	"sync"

	"snacknoc/internal/attrib"
	"snacknoc/internal/cache"
	"snacknoc/internal/core"
	"snacknoc/internal/cpu"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
	"snacknoc/internal/traffic"
)

// Observer is what a RunSpec observes. Tracing, metrics export and
// cycle attribution each have a switch; every simulation a runner
// builds gets its own trace.Tracer (merged through Trace) and
// attrib.Recorder, and contributes one labelled metrics snapshot — the
// shape both the commands' end-of-run reports and snackscope's JSON mode
// fold with attrib.Summarize. Cells of a parallel sweep record
// concurrently, so the snapshots sit behind mu; Snapshots orders them by
// label, keeping the output independent of completion order. Set the
// switches before a run starts; the runners only read them.
type Observer struct {
	// Trace collects flit-lifecycle traces; nil traces nothing.
	Trace *trace.Collector
	// Metrics records every run's snapshot.
	Metrics bool
	// Attrib attaches cycle-attribution counters to every run (and
	// records its snapshot); AttribInterval > 0 additionally samples
	// windowed per-reason deltas every interval cycles (exported as
	// attrib.series.* time series and, when tracing too, as Perfetto
	// counter tracks).
	Attrib         bool
	AttribInterval int64

	mu    sync.Mutex
	snaps []stats.Snapshot
}

// Snapshots returns the snapshots recorded so far, sorted by label so
// the export is deterministic under parallel sweeps. A nil Observer has
// none.
func (o *Observer) Snapshots() []stats.Snapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	out := append([]stats.Snapshot(nil), o.snaps...)
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// record adds one run's snapshot to the export set.
func (o *Observer) record(s stats.Snapshot) {
	o.mu.Lock()
	o.snaps = append(o.snaps, s)
	o.mu.Unlock()
}

// recorder returns a fresh recorder when attribution is on, or nil — the
// disabled value every SetAttrib walk accepts.
func (o *Observer) recorder() *attrib.Recorder {
	if o == nil || !o.Attrib {
		return nil
	}
	return attrib.NewRecorder()
}

// RegisterRunMetrics adds a run's attribution gauges and series and its
// tracer health to reg (rec and tr may be nil). trace.dropped counts
// ring-overwritten events: nonzero means the -trace-last window was too
// small for the run, and snackscope check-trace warns on the same count
// in the dump.
func RegisterRunMetrics(reg *stats.Registry, rec *attrib.Recorder, tr *trace.Tracer) {
	rec.RegisterMetrics(reg)
	if tr != nil {
		reg.AddGauge("trace.dropped", func() float64 { return float64(tr.Dropped()) })
	}
}

// stack is one simulation's layer aggregates: the engine and network of
// every run, the cache hierarchy and cores of a CMP run, and the SnackNoC
// platform of a kernel run or a co-run leg. newCMPStack and RunKernel
// build the runners' stacks; Observe decides which aggregates a run
// attaches and Record which it registers. The fields are
// checkpoint.Target's, so a warm baseline converts its stack to one.
type stack struct {
	Eng  *sim.Engine
	Net  *noc.Network
	Sys  *cache.System
	Work *cpu.Workload
	Plat *core.Platform
}

// newCMPStack builds the CMP simulation a benchmark run, a co-run leg and
// a warm baseline group run on: the network for cfg, cut into the spec's
// shards, with utilization sampling on; the cache hierarchy; and prof's
// cores at scale, seeded with Seed.
func (s RunSpec) newCMPStack(cfg *noc.Config, prof *traffic.Profile, scale Scale) (stack, error) {
	eng := sim.NewEngine()
	net, err := noc.New(eng, s.applyShards(cfg))
	if err != nil {
		return stack{}, err
	}
	net.EnableSampling(sampleInterval)
	sys, err := cache.NewSystem(eng, net, cache.DefaultSystemConfig())
	if err != nil {
		return stack{}, err
	}
	w, err := cpu.NewWorkload(eng, sys, traffic.Scale(prof, float64(scale)), Seed)
	if err != nil {
		return stack{}, err
	}
	return stack{Eng: eng, Net: net, Sys: sys, Work: w}, nil
}

// RunKernel runs prog once on a zero-load w×h standalone SnackNoC built
// on the spec's PlatformConfig, observed under label and capped at
// MaxRunCycles, and returns the result and the platform it ran on.
func (s RunSpec) RunKernel(label string, prog *core.Program, w, h int, priority bool) (*core.Result, *core.Platform, error) {
	eng := sim.NewEngine()
	plat, err := core.NewStandalone(eng, w, h, priority, s.PlatformConfig())
	if err != nil {
		return nil, nil, err
	}
	obs := s.Observe(label, stack{Eng: eng, Net: plat.Net, Plat: plat})
	r, err := plat.Run(prog, MaxRunCycles)
	if err != nil {
		return nil, nil, err
	}
	obs.Record()
	return r, plat, nil
}

// Observation is one simulation's share of its spec's Observer: the
// stack it observes and its labelled tracer and attribution recorder,
// each nil while off.
type Observation struct {
	obs   *Observer
	label string
	st    stack
	tr    *trace.Tracer
	rec   *attrib.Recorder
}

// Observe starts observing the simulation st. It installs the run's
// tracer and recorder on the platform, whose walk covers the mesh and
// the engine, or on the network and engine of a run without one, and on
// the cache hierarchy when there is one; the interval sampler is then
// registered on the engine. Call it once the stack is built and before
// the run, and Record once it has run. With Obs nil it attaches nothing
// and allocates nothing.
func (s RunSpec) Observe(label string, st stack) Observation {
	o := Observation{obs: s.Obs, label: label, st: st, rec: s.Obs.recorder()}
	if s.Obs != nil && s.Obs.Trace != nil {
		o.tr = s.Obs.Trace.NewTracer(label)
	}
	if o.tr == nil && o.rec == nil {
		return o
	}
	if st.Plat != nil {
		st.Plat.SetTracer(o.tr)
		st.Plat.SetAttrib(o.rec)
	} else {
		st.Net.SetTracer(o.tr)
		st.Net.SetAttrib(o.rec)
		st.Eng.SetAttrib(o.rec)
	}
	if st.Sys != nil {
		st.Sys.SetAttrib(o.rec)
	}
	if o.rec != nil {
		// After the SetAttrib walks: the sampler freezes the attached
		// reason set.
		if smp := o.rec.StartSampling(s.Obs.AttribInterval, st.Eng.Settle, o.tr); smp != nil {
			st.Eng.Register(smp)
		}
	}
	return o
}

// Record adds the finished run's snapshot to the export set when metrics
// or attribution is on: the statistics of the aggregates Observe
// attached, the L1 and L2 hit rates of a CMP run, then the recorder's
// counters and the tracer's health.
func (o Observation) Record() {
	if o.obs == nil || !o.obs.Metrics && o.rec == nil {
		return
	}
	reg := stats.NewRegistry()
	if o.st.Plat != nil {
		o.st.Plat.RegisterMetrics(reg)
	} else {
		o.st.Net.RegisterMetrics(reg)
		o.st.Eng.RegisterMetrics(reg)
	}
	if sys := o.st.Sys; sys != nil {
		reg.AddGauge("cache.l1.hitrate", sys.L1HitRate)
		reg.AddGauge("cache.l2.hitrate", sys.L2HitRate)
	}
	RegisterRunMetrics(reg, o.rec, o.tr)
	o.obs.record(reg.Snapshot(o.label))
}
