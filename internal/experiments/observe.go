package experiments

import (
	"sort"
	"sync"

	"snacknoc/internal/attrib"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Observability for experiment sweeps. Tracing, metrics export and
// cycle attribution are off by default and cost nothing beyond a nil
// check per run; once enabled, every simulation a runner builds gets its
// own trace.Tracer (merged through one Collector) and attrib.Recorder,
// and contributes one labelled metrics snapshot — the shape both the
// commands' end-of-run reports and snackscope's JSON mode fold with
// attrib.Summarize. Cells of a parallel sweep register concurrently, so
// the package state is mutex-protected; the dump orders everything by
// label, keeping the output independent of completion order.

var (
	obsMu       sync.Mutex
	obsTraces   *trace.Collector
	obsSnaps    []stats.Snapshot
	obsMetrics  bool
	obsAttrib   bool
	obsAttribIv int64
)

// EnableTracing turns on flit-lifecycle tracing for subsequent runs and
// returns the collector the per-run tracers register with. ringLimit > 0
// keeps only the newest ringLimit events per simulation (the -trace-last
// mode); 0 keeps everything.
func EnableTracing(ringLimit int) *trace.Collector {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsTraces = trace.NewCollector(ringLimit)
	return obsTraces
}

// EnableMetrics turns on metrics snapshots for subsequent runs, clearing
// any previously collected ones.
func EnableMetrics() {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsMetrics = true
	obsSnaps = nil
}

// EnableAttribution turns on cycle attribution for subsequent runs.
// interval > 0 additionally samples windowed per-reason deltas every
// interval cycles (exported as attrib.series.* time series and, when
// tracing is also on, as Perfetto counter tracks). Attribution disables
// warm sweep reuse — see warmActive.
func EnableAttribution(interval int64) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsAttrib = true
	obsAttribIv = interval
}

// AttribEnabled reports whether runs should attach attribution counters.
func AttribEnabled() bool {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsAttrib
}

// MetricsEnabled reports whether EnableMetrics is in effect.
func MetricsEnabled() bool {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsMetrics
}

// DisableObservability turns tracing, metrics, and attribution back off
// and drops collected state (tests use this to isolate themselves).
func DisableObservability() {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsTraces = nil
	obsMetrics = false
	obsSnaps = nil
	obsAttrib = false
	obsAttribIv = 0
}

// TraceCollector returns the active collector, or nil when tracing is off.
func TraceCollector() *trace.Collector {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsTraces
}

// MetricsSnapshots returns the snapshots collected since EnableMetrics,
// sorted by label so the export is deterministic under parallel sweeps.
func MetricsSnapshots() []stats.Snapshot {
	obsMu.Lock()
	defer obsMu.Unlock()
	out := append([]stats.Snapshot(nil), obsSnaps...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// RecordSnapshot adds one run's snapshot to the export set.
func RecordSnapshot(s stats.Snapshot) {
	obsMu.Lock()
	defer obsMu.Unlock()
	obsSnaps = append(obsSnaps, s)
}

// ObserveRecorder returns a fresh recorder when attribution is enabled,
// or nil — the disabled value every SetAttrib walk accepts.
func ObserveRecorder() *attrib.Recorder {
	if !AttribEnabled() {
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

// Observation is one simulation's share of the enabled observability:
// its labelled tracer and attribution recorder, each nil while off.
type Observation struct {
	label string
	tr    *trace.Tracer
	rec   *attrib.Recorder
}

// Observe starts observing the simulation on eng: attach installs the
// run's tracer and recorder on its components — nil while tracing or
// attribution is off, the disabled value every SetTracer and SetAttrib
// accepts — and the interval sampler is then registered on eng. Call it
// once the components are built and before the run, and Record once it
// has run. With observability off it allocates nothing.
func Observe(label string, eng *sim.Engine, attach func(*trace.Tracer, *attrib.Recorder)) Observation {
	o := Observation{label: label, rec: ObserveRecorder()}
	obsMu.Lock()
	if obsTraces != nil {
		o.tr = obsTraces.NewTracer(label)
	}
	interval := obsAttribIv
	obsMu.Unlock()
	attach(o.tr, o.rec)
	if o.rec != nil {
		// After the SetAttrib walk: the sampler freezes the attached
		// reason set.
		if s := o.rec.StartSampling(interval, eng.Settle, o.tr); s != nil {
			eng.Register(s)
		}
	}
	return o
}

// Record adds the finished run's snapshot to the export set when metrics
// or attribution is on: register names the run's own statistics, and the
// recorder's counters and the tracer's health follow them.
func (o Observation) Record(register func(*stats.Registry)) {
	if !MetricsEnabled() && o.rec == nil {
		return
	}
	reg := stats.NewRegistry()
	register(reg)
	RegisterRunMetrics(reg, o.rec, o.tr)
	RecordSnapshot(reg.Snapshot(o.label))
}
