package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatalf("after reset = %d, want 0", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

// clocked is one resource observed the way a router observes its
// crossbar: a busy counter and a series read against one clock, the
// series a column of a slab beside another owner's (column 0, never
// closed).
type clocked struct {
	interval int64
	clock    Clock
	busy     Counter
	slab     SampleSlab
}

func (c *clocked) series() *SampleSlab {
	if c.slab.cols == 0 {
		c.slab = MakeSampleSlab(2)
	}
	return &c.slab
}

func (c *clocked) observe(busy bool) {
	if busy {
		c.busy.Inc()
		c.series().MarkBusy(1)
	}
	if c.clock.Tick(c.interval) {
		c.close(1)
	}
}

func (c *clocked) skip(n int64) {
	if closed := c.clock.Skip(n, c.interval); closed > 0 {
		c.close(closed)
	}
}

func (c *clocked) close(n int64) { c.series().Close(1, n, c.interval) }

func (c *clocked) samples() []float64 { return c.series().Column(1) }

func (c *clocked) util() *Utilization { return NewUtilization(&c.busy, &c.clock) }

func TestUtilization(t *testing.T) {
	var c clocked
	u := c.util()
	for i := 0; i < 10; i++ {
		c.observe(i < 3)
	}
	if u.Busy() != 3 || u.Total() != 10 {
		t.Fatalf("busy/total = %d/%d, want 3/10", u.Busy(), u.Total())
	}
	if got := u.Fraction(); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("fraction = %v, want 0.3", got)
	}
	if got := u.Percent(); math.Abs(got-30) > 1e-9 {
		t.Fatalf("percent = %v, want 30", got)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	var c clocked
	if c.util().Fraction() != 0 {
		t.Fatal("empty utilization should be 0")
	}
}

func TestTimeSeriesSampling(t *testing.T) {
	c := clocked{interval: 10}
	for i := 0; i < 35; i++ {
		c.observe(i%2 == 0) // 50% duty
	}
	s := c.samples()
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3 (35 obs / 10)", len(s))
	}
	for _, v := range s {
		if math.Abs(v-0.5) > 1e-12 {
			t.Fatalf("sample = %v, want 0.5", v)
		}
	}
}

func TestTimeSeriesMedianMax(t *testing.T) {
	c := clocked{interval: 2}
	pattern := []bool{true, true, false, false, true, false}
	for _, b := range pattern {
		c.observe(b)
	}
	// samples: 1.0, 0.0, 0.5
	if got := Median(c.samples()); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("median = %v, want 0.5", got)
	}
	if got := slices.Max(c.samples()); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("max = %v, want 1.0", got)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram(1.0, 10)
	// 96% zeros, 4% at 0.55 — shaped like the paper's Fig 3.
	for i := 0; i < 96; i++ {
		h.Observe(0)
	}
	for i := 0; i < 4; i++ {
		h.Observe(0.55)
	}
	cdf := h.CDF()
	if len(cdf) != 10 {
		t.Fatalf("cdf has %d points, want 10", len(cdf))
	}
	if math.Abs(cdf[0].Prob-0.96) > 1e-12 {
		t.Fatalf("P(<=0.1) = %v, want 0.96", cdf[0].Prob)
	}
	if math.Abs(cdf[5].Prob-1.0) > 1e-12 {
		t.Fatalf("P(<=0.6) = %v, want 1.0", cdf[5].Prob)
	}
	if cdf[9].Prob != 1.0 {
		t.Fatalf("final CDF point = %v, want 1.0", cdf[9].Prob)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(1.0, 4)
	h.Observe(-5)  // clamps to bucket 0
	h.Observe(2.0) // clamps to last bucket
	if h.Buckets()[0] != 1 || h.Buckets()[3] != 1 {
		t.Fatalf("buckets = %v, want [1 0 0 1]", h.Buckets())
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Median mutated input: %v", in)
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	// Property: any observation stream yields a non-decreasing CDF that
	// ends at probability 1.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(1.0, 16)
		for _, r := range raw {
			h.Observe(float64(r) / 255)
		}
		cdf := h.CDF()
		prev := 0.0
		for _, p := range cdf {
			if p.Prob < prev {
				return false
			}
			prev = p.Prob
		}
		return math.Abs(cdf[len(cdf)-1].Prob-1.0) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// perCycle is the arithmetic a clocked resource must reproduce: every
// resource keeps its own total and its own place in the sampling window,
// and is told about every cycle, idle ones included, one at a time.
type perCycle struct {
	interval           int64
	busy, total        int64
	winBusy, winCycles int64
	samples            []float64
}

func (p *perCycle) observe(busy bool) {
	p.total++
	if busy {
		p.busy++
		p.winBusy++
	}
	p.winCycles++
	if p.winCycles == p.interval {
		p.samples = append(p.samples, float64(p.winBusy)/float64(p.interval))
		p.winBusy, p.winCycles = 0, 0
	}
}

// TestClockedMatchesPerCycleProperty: for any busy pattern broken up by
// idle spans — skipped in one Skip, and long enough to cross several
// windows — a busy-only counter and series on a shared clock read the
// same busy count, total, fraction and samples as per-cycle observation.
func TestClockedMatchesPerCycleProperty(t *testing.T) {
	f := func(interval uint8, steps []uint16) bool {
		c := clocked{interval: int64(interval%7) + 1}
		ref := perCycle{interval: c.interval}
		for _, st := range steps {
			if st&1 == 0 {
				// a run of observed cycles, busy by the bits of st
				for b := uint(1); b < 8; b++ {
					c.observe(st>>b&1 == 1)
					ref.observe(st>>b&1 == 1)
				}
				continue
			}
			idle := int64(st >> 1 % 64) // up to nine windows at interval 7
			c.skip(idle)
			for ; idle > 0; idle-- {
				ref.observe(false)
			}
		}
		u := c.util()
		if u.Busy() != ref.busy || u.Total() != ref.total {
			return false
		}
		if ref.total > 0 && u.Fraction() != float64(ref.busy)/float64(ref.total) {
			return false
		}
		got := c.samples()
		if len(got) != len(ref.samples) {
			return false
		}
		for i := range got {
			if got[i] != ref.samples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Without a sampling interval the clock only counts.
	var c clocked
	c.observe(true)
	c.skip(1000)
	if u := c.util(); u.Busy() != 1 || u.Total() != 1001 || len(c.samples()) != 0 {
		t.Fatalf("unsampled: busy %d total %d samples %d", u.Busy(), u.Total(), len(c.samples()))
	}
}
