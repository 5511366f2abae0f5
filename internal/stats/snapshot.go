package stats

// CopyFrom makes s hold o's samples and counts in its own storage: a
// checkpoint takes a slab with it and restores it with it again. The
// column count is the slab's shape, not its state, and is not copied,
// and a slab taken before sampling began restores nothing. No reader
// holds that storage, since Column copies out of it. A Counter, a Clock
// and a Histogram (whose buckets are a window of their owner's slab)
// are plain values their owner's block copies.
func (s *SampleSlab) CopyFrom(o *SampleSlab) {
	if len(o.counts) == 0 {
		return
	}
	s.vals = append(s.vals[:0], o.vals...)
	s.counts = append(s.counts[:0], o.counts...)
}
