package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// summary describes one metric's samples within a run. Seven samples
// give no percentile with ten samples beyond it, so none is printed:
// the median stands with its quartiles, extremes and count.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Values are the samples in the order they were taken.
	Values []float64 `json:"values"`
}

// quantile is the p-quantile by the exclusive method Python's
// statistics.quantiles uses, so a spread computed here reads like the
// one computed over whole runs.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	i := int(pos)
	return sorted[i] + (sorted[i+1]-sorted[i])*(pos-float64(i))
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s), Values: xs,
	}
}

// rangePct is (max - min) / median, the noise guard's measure.
func (s summary) rangePct() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median * 100
}

// iqrShare is (q3 - q1) / median, the spread a bound is compared with.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibSpin times a fixed integer loop and returns the fastest of five
// goes in nanoseconds, which a single preemption cannot move. It does
// the same work on every call, so a change in its time is a change in
// the host, not in the simulator: the noise guard compares it across
// the passes of a run.
func calibSpin() float64 {
	best := time.Duration(1 << 62)
	for try := 0; try < 5; try++ {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		best = min(best, time.Since(t))
		calibSink += x
	}
	return float64(best.Nanoseconds())
}

// passCost is what one pass cost the host.
type passCost struct {
	CalibNs float64 // the calibration spin, timed just before the pass
	WallS   float64
	Mallocs float64
	AllocMB float64
	GCs     float64
	PauseMs float64
}

// timed runs fn once and reports its cost. The heap is left as the
// previous pass left it: over a run every pass then pays, on average,
// for collecting one pass's garbage, as a long sweep does, while the
// allocation counts stay exact.
func timed(fn func() error) (passCost, error) {
	var before, after runtime.MemStats
	calib := calibSpin()
	runtime.ReadMemStats(&before)
	t := time.Now()
	err := fn()
	wall := time.Since(t)
	runtime.ReadMemStats(&after)
	return passCost{
		CalibNs: calib,
		WallS:   wall.Seconds(),
		Mallocs: float64(after.Mallocs - before.Mallocs),
		AllocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		GCs:     float64(after.NumGC - before.NumGC),
		PauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}, err
}

// peakRSSMB is the process's resident-set high-water mark. Hosts
// without /proc report what the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
