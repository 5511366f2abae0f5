package stats

// Checkpoint support: every stat type that owns buffers can export its
// mutable state and have it written back later (a Clock is plain state
// its owner copies; a Utilization is a view and has none). A CounterState
// (etc.) is a value type and owns deep copies of any internal buffers, so
// one saved state can be restored onto the same object any number of
// times — the fork semantics internal/checkpoint builds on.

// CounterState is a Counter's saved value.
type CounterState struct{ N int64 }

// State captures the counter.
func (c *Counter) State() CounterState { return CounterState{N: c.n} }

// Restore writes a saved state back.
func (c *Counter) Restore(s CounterState) { c.n = s.N }

// TimeSeriesState is a TimeSeries' saved value, including a copy of the
// completed samples and the open window's busy count.
type TimeSeriesState struct {
	Samples []float64
	Busy    int64
}

// State captures the series. The sample slice is copied.
func (t *TimeSeries) State() TimeSeriesState {
	return TimeSeriesState{Samples: append([]float64(nil), t.samples...), Busy: t.busy}
}

// Restore writes a saved state back. The saved samples are copied into
// the series' own storage, so the state can be restored repeatedly; no
// reader holds that storage, since Samples and Median copy out of it.
func (t *TimeSeries) Restore(s TimeSeriesState) {
	t.samples = append(t.samples[:0], s.Samples...)
	t.busy = s.Busy
}

// HistogramState is a Histogram's saved value with copied buckets.
type HistogramState struct {
	Buckets []int64
	Total   int64
}

// State captures the histogram. The bucket slice is copied.
func (h *Histogram) State() HistogramState {
	return HistogramState{Buckets: append([]int64(nil), h.buckets...), Total: h.total}
}

// Restore writes a saved state back (bucket geometry must match).
func (h *Histogram) Restore(s HistogramState) {
	copy(h.buckets, s.Buckets)
	h.total = s.Total
}
