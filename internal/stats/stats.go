// Package stats collects the measurements the paper's evaluation is built
// from: per-resource utilization over time (Figs 2 and 11), occupancy CDFs
// (Fig 3), scalar counters, and distribution summaries.
package stats

import "sort"

// Counter is a monotonically increasing event count.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("stats: Counter.Add with negative delta")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Clock is the observation clock of one component: how many cycles it has
// observed and how far into the current sampling window they reach. All
// of a component's utilizations and series are read against its one
// clock — a router's crossbar and links are observed in lockstep — so
// each of them counts busy cycles only, an observed cycle costs one Tick
// however many resources were idle in it, and a span of skipped idle
// cycles is one Skip. The sampling interval is the owner's configuration
// and passed in (0 when nothing is sampled); the Clock itself is plain
// state a checkpoint copies.
type Clock struct {
	observed int64
	pos      int64 // cycles into the open window, in [0, interval)
}

// Observed returns the number of cycles observed.
func (c *Clock) Observed() int64 { return c.observed }

// Tick observes one cycle and reports whether it completed a sampling
// window, in which case the owner closes the window of each of its
// series (SampleSlab.Close).
func (c *Clock) Tick(interval int64) bool {
	c.observed++
	if interval == 0 {
		return false
	}
	c.pos++
	if c.pos < interval {
		return false
	}
	c.pos = 0
	return true
}

// Skip observes n cycles in which nothing was busy and returns how many
// sampling windows they completed: the same as n Ticks.
func (c *Clock) Skip(n, interval int64) int64 {
	if n < 0 {
		panic("stats: Clock.Skip with negative count")
	}
	c.observed += n
	if interval == 0 {
		return 0
	}
	c.pos += n
	closed := c.pos / interval
	c.pos %= interval
	return closed
}

// Utilization reads how many cycles a resource was busy out of the
// cycles its owner's clock observed, e.g. crossbar or link utilization.
// It is a view of the two counts, current whenever it is read.
type Utilization struct {
	busy  *Counter
	clock *Clock
}

// NewUtilization pairs a busy-cycle counter with the clock that observed
// the resource.
func NewUtilization(busy *Counter, clock *Clock) *Utilization {
	return &Utilization{busy: busy, clock: clock}
}

// Busy returns the busy-cycle count.
func (u *Utilization) Busy() int64 { return u.busy.Value() }

// Total returns the observed-cycle count.
func (u *Utilization) Total() int64 { return u.clock.Observed() }

// Fraction returns busy/total in [0,1], or 0 before any observation.
func (u *Utilization) Fraction() float64 {
	if u.Total() == 0 {
		return 0
	}
	return float64(u.Busy()) / float64(u.Total())
}

// SampleSlab holds series sampled per window (the paper's "each sample
// collected over 10K cycles") in one window-major slab, window k of
// column c at k*cols+c, and counts each column's closed windows and open
// window's busy cycles. Rows grow by doubling, so W windows cost
// O(log W) allocations however many columns share the slab.
type SampleSlab struct {
	vals   []float64
	cols   int
	counts []int64 // column c's busy cycles in its open window at c, its windows at cols+c
}

// MakeSampleSlab returns an empty slab of cols columns.
func MakeSampleSlab(cols int) SampleSlab {
	return SampleSlab{cols: cols, counts: make([]int64, 2*cols)}
}

// MarkBusy records one busy cycle in column col's open window.
func (s *SampleSlab) MarkBusy(col int) { s.counts[col]++ }

// Close completes n windows of column col at once: the open one with
// its busy cycles out of interval, and n-1 further windows in which
// nothing was busy (an owner that slept across several windows).
func (s *SampleSlab) Close(col int, n, interval int64) {
	s.Record(col, float64(s.counts[col])/float64(interval))
	s.counts[col] = 0
	for ; n > 1; n-- {
		s.Record(col, 0)
	}
}

// Record appends v to column col as its next window, for a series an
// external sampler computes (the attribution interval sampler).
func (s *SampleSlab) Record(col int, v float64) {
	k := int(s.counts[s.cols+col])
	if need := (k + 1) * s.cols; need > len(s.vals) {
		if need > cap(s.vals) {
			s.vals = append(make([]float64, 0, max(need, 2*cap(s.vals), 8*s.cols)), s.vals...)
		}
		old := len(s.vals)
		s.vals = s.vals[:need]
		clear(s.vals[old:])
	}
	s.vals[k*s.cols+col] = v
	s.counts[s.cols+col]++
}

// Windows returns the number of windows column col has closed.
func (s *SampleSlab) Windows(col int) int { return int(s.counts[s.cols+col]) }

// At returns window k < Windows(col) of column col.
func (s *SampleSlab) At(col, k int) float64 { return s.vals[k*s.cols+col] }

// Column returns a copy of column col's windows, immune to later ones.
func (s *SampleSlab) Column(col int) []float64 {
	out := make([]float64, s.Windows(col))
	for k := range out {
		out[k] = s.At(col, k)
	}
	return out
}

// Histogram counts observations into fixed-width buckets over [0, max).
// Values at or above max land in the final bucket.
type Histogram struct {
	max     float64
	buckets []int64
	total   int64
}

// NewHistogram returns a histogram with n buckets spanning [0, max).
func NewHistogram(max float64, n int) *Histogram {
	h := MakeHistogram(max, make([]int64, n))
	return &h
}

// MakeHistogram is NewHistogram by value over caller-owned (zeroed)
// bucket storage, for owners that keep many histograms in one slab.
func MakeHistogram(max float64, buckets []int64) Histogram {
	if len(buckets) == 0 || max <= 0 {
		panic("stats: NewHistogram needs positive max and bucket count")
	}
	return Histogram{max: max, buckets: buckets}
}

// BucketIndex returns the bucket Observe(v) would increment. Hot loops
// that observe a small set of discrete values can precompute indices once
// and use ObserveBucket, skipping the float divide per observation; the
// arithmetic here is exactly Observe's, so the mapping is identical.
func (h *Histogram) BucketIndex(v float64) int {
	if v < 0 {
		v = 0
	}
	i := int(v / h.max * float64(len(h.buckets)))
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	return i
}

// ObserveBucket records one observation directly into bucket i, which must
// come from BucketIndex.
func (h *Histogram) ObserveBucket(i int) {
	h.buckets[i]++
	h.total++
}

// ObserveBucketN records n observations into bucket i (from BucketIndex).
func (h *Histogram) ObserveBucketN(i int, n int64) {
	if n < 0 {
		panic("stats: Histogram.ObserveBucketN with negative count")
	}
	h.buckets[i] += n
	h.total += n
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.BucketIndex(v)]++
	h.total++
}

// ObserveN records the same value n times, equivalent to n Observe calls.
func (h *Histogram) ObserveN(v float64, n int64) {
	h.ObserveBucketN(h.BucketIndex(v), n)
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns a copy of the bucket counts; later observations cannot
// mutate a returned snapshot.
func (h *Histogram) Buckets() []int64 {
	return append([]int64(nil), h.buckets...)
}

// CDF returns (upper-edge, cumulative-probability) pairs, one per bucket.
// This is the form plotted in the paper's Fig 3.
func (h *Histogram) CDF() []CDFPoint {
	pts := make([]CDFPoint, len(h.buckets))
	var cum int64
	for i, c := range h.buckets {
		cum += c
		p := 0.0
		if h.total > 0 {
			p = float64(cum) / float64(h.total)
		}
		pts[i] = CDFPoint{
			Value: h.max * float64(i+1) / float64(len(h.buckets)),
			Prob:  p,
		}
	}
	return pts
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value float64 // upper edge of the bucket
	Prob  float64 // cumulative probability up to Value
}

// Median returns the median of vs without modifying it (0 if empty).
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
