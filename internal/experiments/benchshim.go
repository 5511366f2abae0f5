package experiments

import (
	"snacknoc/internal/attrib"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
	"snacknoc/internal/traffic"
)

// The repository benchmark (benchmark/) still drives the runners through
// the package-level names below. Each is a one-line read or write of one
// package-default RunSpec that nothing else in the package reads: the
// commands, the public API and the tests pass their own RunSpec. Call
// them from one goroutine, between runs. Moving the benchmark onto
// RunSpec deletes this file.
var benchRun RunSpec

func SetWorkers(n int) { benchRun.Workers = n }

// SetShards does nothing: every run above a bare network is serial.
func SetShards(int) {}

// SetWarmSweeps does nothing: co-run sweeps always memoize legs 1 and 2.
func SetWarmSweeps(bool) {}

// WarmupCycles is how far the benchmark runs the co-run it checkpoints.
const WarmupCycles = 8192

// EnableAttribution attaches attribution counters to subsequent runs
// (see Observer.AttribInterval).
func EnableAttribution(interval int64) {
	o := benchObs()
	o.Attrib, o.AttribInterval = true, interval
}

// EnableMetrics records a snapshot of every subsequent run, dropping the
// ones already recorded.
func EnableMetrics() {
	o := benchObs()
	o.Metrics, o.snaps = true, nil
}

// DisableObservability turns tracing, metrics and attribution off and
// drops what they collected.
func DisableObservability() { benchRun.Obs = nil }

func AttribEnabled() bool                { return benchRun.Obs != nil && benchRun.Obs.Attrib }
func MetricsEnabled() bool               { return benchRun.Obs != nil && benchRun.Obs.Metrics }
func MetricsSnapshots() []stats.Snapshot { return benchRun.Obs.Snapshots() }
func RecordSnapshot(s stats.Snapshot)    { benchObs().record(s) }
func ObserveRecorder() *attrib.Recorder  { return benchRun.Obs.recorder() }

// TraceCollector is the default spec's trace collector, nil while it
// traces nothing (only a RunSpec's own Observer can switch tracing on).
func TraceCollector() *trace.Collector {
	if benchRun.Obs == nil {
		return nil
	}
	return benchRun.Obs.Trace
}

func RunBenchmark(cfg *noc.Config, prof *traffic.Profile, scale Scale) (*BenchRun, error) {
	return benchRun.RunBenchmark(cfg, prof, scale)
}

func RunCoRun(spec CoRunSpec) (*CoRunResult, error) { return benchRun.RunCoRun(spec) }

func RunDSE(cfg DSEConfig) (*DSEResult, error) { return benchRun.RunDSE(cfg) }

// benchObs is the default spec's Observer, created switched off.
func benchObs() *Observer {
	if benchRun.Obs == nil {
		benchRun.Obs = &Observer{}
	}
	return benchRun.Obs
}
