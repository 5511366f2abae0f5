// Package stats collects the measurements the paper's evaluation is built
// from: per-resource utilization over time (Figs 2 and 11), occupancy CDFs
// (Fig 3), scalar counters, and distribution summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

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

// Utilization tracks how many cycles a resource was busy out of total
// cycles observed, e.g. crossbar or link utilization.
type Utilization struct {
	busy  int64
	total int64
}

// Observe records one cycle; busy reports whether the resource was in use.
func (u *Utilization) Observe(busy bool) {
	u.total++
	if busy {
		u.busy++
	}
}

// ObserveN records n cycles with the given number busy.
func (u *Utilization) ObserveN(busy, n int64) {
	if busy < 0 || busy > n {
		panic("stats: ObserveN busy out of range")
	}
	u.busy += busy
	u.total += n
}

// Busy returns the busy-cycle count.
func (u *Utilization) Busy() int64 { return u.busy }

// Total returns the observed-cycle count.
func (u *Utilization) Total() int64 { return u.total }

// Fraction returns busy/total in [0,1], or 0 before any observation.
func (u *Utilization) Fraction() float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.busy) / float64(u.total)
}

// Percent returns utilization as a percentage.
func (u *Utilization) Percent() float64 { return u.Fraction() * 100 }

// Reset zeroes the tracker.
func (u *Utilization) Reset() { u.busy, u.total = 0, 0 }

// TimeSeries samples a utilization-style signal at a fixed cycle interval,
// mirroring the paper's "each sample collected over 10K cycles".
type TimeSeries struct {
	interval  int64
	samples   []float64
	busy      int64
	seen      int64
	startedAt int64
}

// NewTimeSeries returns a series that emits one sample per interval cycles.
func NewTimeSeries(interval int64) *TimeSeries {
	t := MakeTimeSeries(interval)
	return &t
}

// MakeTimeSeries is NewTimeSeries by value, for owners that keep their
// series in a slab.
func MakeTimeSeries(interval int64) TimeSeries {
	if interval <= 0 {
		panic("stats: NewTimeSeries interval must be positive")
	}
	return TimeSeries{interval: interval}
}

// Observe records one cycle of the underlying signal.
func (t *TimeSeries) Observe(busy bool) {
	if busy {
		t.busy++
	}
	t.seen++
	if t.seen == t.interval {
		t.samples = append(t.samples, float64(t.busy)/float64(t.interval))
		t.busy, t.seen = 0, 0
	}
}

// ObserveIdleN records n consecutive idle cycles, equivalent to calling
// Observe(false) n times. Quiescent components use it to replay skipped
// cycles in one call; the window arithmetic (including samples completed
// mid-batch) matches the incremental path exactly.
func (t *TimeSeries) ObserveIdleN(n int64) {
	if n < 0 {
		panic("stats: ObserveIdleN with negative count")
	}
	for n > 0 {
		room := t.interval - t.seen
		if n < room {
			t.seen += n
			return
		}
		t.samples = append(t.samples, float64(t.busy)/float64(t.interval))
		t.busy, t.seen = 0, 0
		n -= room
	}
}

// Record appends one completed sample directly, bypassing the per-cycle
// Observe accounting. It is for series whose windows are closed by an
// external sampler (the attribution interval sampler) rather than by
// counting busy cycles; do not mix Record and Observe on one series.
func (t *TimeSeries) Record(v float64) {
	t.samples = append(t.samples, v)
}

// Interval returns the configured window length in cycles.
func (t *TimeSeries) Interval() int64 { return t.interval }

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

// Mean returns the arithmetic mean of vs (0 if empty).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// GeoMean returns the geometric mean of vs, which must all be positive.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: GeoMean with non-positive value %v", v))
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of vs using
// nearest-rank on a sorted copy (0 if empty).
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}
