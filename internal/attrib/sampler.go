package attrib

import (
	"snacknoc/internal/stats"
	"snacknoc/internal/trace"
)

// Sampler closes attribution windows every interval cycles: it reads
// the per-(kind,reason) aggregate deltas since the previous window into
// a stats.SampleSlab, a column per reason, and, when tracing is on,
// emits them as Perfetto counter tracks so phase behavior is visible on
// the timeline.
//
// It satisfies sim.Component structurally (this package must not import
// sim) and is registered on the engine that drives the attached
// components. It never implements Quiescer — staying on the active list costs one
// modulus per cycle and keeps window boundaries exact.
//
// Before reading, the sampler settles the engine so sleeping
// components' idle cycles are replayed into their counters. A sleeping
// component's replay reaches cycle-1 while awake components have
// counted the current cycle — a deterministic ±1-cycle boundary jitter
// per window that cancels in the next window and never affects the
// end-of-run totals (Run settles again at its end).
type Sampler struct {
	rec      *Recorder
	interval int64
	settle   func()
	tr       *trace.Tracer

	reasons []Reason // reasons present among the attached components
	samples stats.SampleSlab
	last    [NumReasons]int64
	tracks  [NumReasons]int32
}

// StartSampling attaches a window sampler to the recorder. Call it
// after every component has been attached (the reason set is frozen
// here), register the returned component on the run's engine, and pass
// the run's settle hook (typically the engine's Settle). A nil recorder
// or non-positive interval returns nil. tr may be nil (no counter
// tracks).
func (rec *Recorder) StartSampling(interval int64, settle func(), tr *trace.Tracer) *Sampler {
	if rec == nil || interval <= 0 {
		return nil
	}
	s := &Sampler{rec: rec, interval: interval, settle: settle, tr: tr, samples: stats.MakeSampleSlab(int(NumReasons))}
	var seen [NumReasons]bool
	for _, c := range rec.comps {
		for _, r := range kindReasons[c.kind] {
			seen[r] = true
		}
	}
	for r := Reason(0); r < NumReasons; r++ {
		if !seen[r] {
			continue
		}
		s.reasons = append(s.reasons, r)
		if tr != nil {
			s.tracks[r] = tr.CounterTrack("attrib." + reasonNames[r])
		}
	}
	rec.sampler = s
	return s
}

// Evaluate closes a window on its last cycle.
func (s *Sampler) Evaluate(cycle int64) {
	if (cycle+1)%s.interval != 0 {
		return
	}
	if s.settle != nil {
		s.settle()
	}
	var totals [NumReasons]int64
	for _, c := range s.rec.comps {
		for i, r := range kindReasons[c.kind] {
			totals[r] += c.n[i]
		}
	}
	for _, r := range s.reasons {
		d := totals[r] - s.last[r]
		s.last[r] = totals[r]
		s.samples.Record(int(r), float64(d))
		if s.tr != nil {
			rec := trace.Instant(trace.KindCounter, cycle, -1)
			rec.Aux = s.tracks[r]
			rec.Packet = uint64(d)
			s.tr.Emit(rec)
		}
	}
}

// Advance implements sim.Component; the sampler commits nothing.
func (s *Sampler) Advance(int64) {}
