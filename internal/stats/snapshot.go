package stats

// CopyFrom makes t a copy of o, the samples in t's own storage: a
// checkpoint takes a series with it and restores it with it again. No
// reader holds that storage, since Samples and Median copy out of it. A
// Counter, a Clock and a Histogram (whose buckets are a window of their
// owner's slab) are plain values their owner's block copies.
func (t *TimeSeries) CopyFrom(o *TimeSeries) {
	t.samples = append(t.samples[:0], o.samples...)
	t.busy = o.busy
}
