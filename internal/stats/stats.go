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

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

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
// series (TimeSeries.Close).
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

// Percent returns utilization as a percentage.
func (u *Utilization) Percent() float64 { return u.Fraction() * 100 }

// TimeSeries samples a utilization-style signal once per sampling window
// of its owner's Clock, mirroring the paper's "each sample collected over
// 10K cycles": it counts the busy cycles of the open window, and the
// owner closes the window when the clock says so. The zero value is an
// empty series.
type TimeSeries struct {
	samples []float64
	busy    int64
}

// MarkBusy records one busy cycle in the open window.
func (t *TimeSeries) MarkBusy() { t.busy++ }

// Close completes n windows of the given length at once: the open one
// with the busy cycles marked in it, and n-1 further windows in which
// nothing was busy (a component that slept across several windows).
func (t *TimeSeries) Close(interval, n int64) {
	t.samples = append(t.samples, float64(t.busy)/float64(interval))
	t.busy = 0
	for ; n > 1; n-- {
		t.samples = append(t.samples, 0)
	}
}

// Record appends one completed sample directly. It is for series whose
// samples are computed by an external sampler (the attribution interval
// sampler) rather than by counting busy cycles; do not mix Record with
// MarkBusy and Close on one series.
func (t *TimeSeries) Record(v float64) {
	t.samples = append(t.samples, v)
}

// Samples returns a copy of the completed samples as fractions in [0,1].
// Returning a copy keeps snapshots taken mid-run (registry exports, the
// figure collectors) immune to later observations growing or rewriting
// the internal buffer.
func (t *TimeSeries) Samples() []float64 {
	return append([]float64(nil), t.samples...)
}

// Median returns the median of completed samples (0 if none).
func (t *TimeSeries) Median() float64 { return Median(t.samples) }

// Max returns the maximum completed sample (0 if none).
func (t *TimeSeries) Max() float64 {
	m := 0.0
	for _, s := range t.samples {
		if s > m {
			m = s
		}
	}
	return m
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
	if n <= 0 {
		panic("stats: NewHistogram needs positive max and bucket count")
	}
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
