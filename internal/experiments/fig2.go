package experiments

import (
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
	"snacknoc/internal/traffic"
)

// Fig2Benchmarks are the four applications the paper selects from the
// quartiles of peak router utilization: low (FMM), medium-low
// (Cholesky), medium-high (LULESH), and high (Graph500).
func Fig2Benchmarks() []*traffic.Profile {
	return []*traffic.Profile{
		traffic.FMM(), traffic.Cholesky(), traffic.LULESH(), traffic.Graph500(),
	}
}

// Fig2Result holds the Fig 2 time-series study on the DAPPER NoC: per-
// router crossbar usage (a) and per-router mean link usage (b) over
// time, plus the summary statistics the paper quotes in the text.
type Fig2Result struct {
	Runs []*BenchRun
}

// RunFig2 reproduces Fig 2 (both panels). The four benchmark runs are
// independent simulations and execute on the sweep worker pool.
func RunFig2(scale Scale) (*Fig2Result, error) {
	benches := Fig2Benchmarks()
	runs := make([]*BenchRun, len(benches))
	err := forEach(len(benches), func(i int) error {
		run, err := RunBenchmark(noc.DAPPER(4, 4), benches[i], scale)
		if err != nil {
			return err
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Runs: runs}, nil
}

// Fig3Result is the Raytrace input-buffer occupancy CDF. The paper picks
// Raytrace because it has the largest sensitivity to buffer allocation;
// its CDF shows ~96% of cycles at zero occupancy and contention that
// rarely exceeds 10% of capacity.
type Fig3Result struct {
	Run *BenchRun
	// ZeroOccupancyPct is the fraction of router-cycles with empty input
	// buffers.
	ZeroOccupancyPct float64
	// P99OccupancyPct is the occupancy (as % of capacity) below which
	// 99% of router-cycles fall.
	P99OccupancyPct float64
}

// RunFig3 reproduces Fig 3 on the DAPPER NoC.
func RunFig3(scale Scale) (*Fig3Result, error) {
	run, err := RunBenchmark(noc.DAPPER(4, 4), traffic.Raytrace(), scale)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Run: run}
	res.ZeroOccupancyPct, res.P99OccupancyPct = run.BufferSummary()
	return res, nil
}

// cdfSummary extracts the zero-bucket probability and the 99th
// percentile occupancy from a buffer CDF.
func cdfSummary(cdf []stats.CDFPoint) (zeroPct, p99Pct float64) {
	if len(cdf) == 0 {
		return 0, 0
	}
	zeroPct = cdf[0].Prob * 100
	p99Pct = 100
	for _, pt := range cdf {
		if pt.Prob >= 0.99 {
			p99Pct = pt.Value * 100
			break
		}
	}
	return zeroPct, p99Pct
}
