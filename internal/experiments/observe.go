package experiments

import (
	"sort"
	"sync"

	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
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

// Observation is one simulation's share of its spec's Observer: its
// labelled tracer and attribution recorder, each nil while off.
type Observation struct {
	obs   *Observer
	label string
	tr    *trace.Tracer
	rec   *attrib.Recorder
}

// Observe starts observing the simulation on eng: attach installs the
// run's tracer and recorder on its components — nil while tracing or
// attribution is off, the disabled value every SetTracer and SetAttrib
// accepts — and the interval sampler is then registered on eng. Call it
// once the components are built and before the run, and Record once it
// has run. With Obs nil it allocates nothing.
func (s RunSpec) Observe(label string, eng *sim.Engine, attach func(*trace.Tracer, *attrib.Recorder)) Observation {
	o := Observation{obs: s.Obs, label: label, rec: s.Obs.recorder()}
	if s.Obs != nil && s.Obs.Trace != nil {
		o.tr = s.Obs.Trace.NewTracer(label)
	}
	attach(o.tr, o.rec)
	if o.rec != nil {
		// After the SetAttrib walk: the sampler freezes the attached
		// reason set.
		if smp := o.rec.StartSampling(s.Obs.AttribInterval, eng.Settle, o.tr); smp != nil {
			eng.Register(smp)
		}
	}
	return o
}

// Record adds the finished run's snapshot to the export set when metrics
// or attribution is on: register names the run's own statistics, and the
// recorder's counters and the tracer's health follow them.
func (o Observation) Record(register func(*stats.Registry)) {
	if o.obs == nil || !o.obs.Metrics && o.rec == nil {
		return
	}
	reg := stats.NewRegistry()
	register(reg)
	RegisterRunMetrics(reg, o.rec, o.tr)
	o.obs.record(reg.Snapshot(o.label))
}
