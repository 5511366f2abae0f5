package experiments

import (
	"fmt"

	"snacknoc/internal/noc"
	"snacknoc/internal/traffic"
)

// Fig1Variant names one NoC configuration of the Fig 1 sensitivity study.
type Fig1Variant struct {
	Label string
	Cfg   *noc.Config
}

// Fig1Variants returns the paper's nine configurations: the three
// Table I baselines plus AxNoC with buffers, VCs, or channel width cut
// by 2× and 4×.
func Fig1Variants(width, height int) []Fig1Variant {
	ax := noc.AxNoC(width, height)
	return []Fig1Variant{
		{"BiNoCHS", noc.BiNoCHS(width, height)},
		{"DAPPER", noc.DAPPER(width, height)},
		{"AxNoC", ax},
		{"AxNoC Buffer / 2", noc.Reduce(ax, 2, 1, 1)},
		{"AxNoC Buffer / 4", noc.Reduce(ax, 4, 1, 1)},
		{"AxNoC VC / 2", noc.Reduce(ax, 1, 2, 1)},
		{"AxNoC VC / 4", noc.Reduce(ax, 1, 4, 1)},
		{"AxNoC Channel Width / 2", noc.Reduce(ax, 1, 1, 2)},
		{"AxNoC Channel Width / 4", noc.Reduce(ax, 1, 1, 4)},
	}
}

// Fig1Row is one benchmark's slowdowns relative to BiNoCHS.
type Fig1Row struct {
	Benchmark string
	// SlowdownPct is indexed like Fig1Variants()[1:] — BiNoCHS is the
	// 0%-by-definition baseline and omitted.
	SlowdownPct []float64
}

// Fig1Result is the full resource-selection study.
type Fig1Result struct {
	Variants []string // variant labels, excluding the baseline
	Rows     []Fig1Row
}

// RunFig1 reproduces Fig 1: execution slowdown of each NoC configuration
// relative to BiNoCHS across the Table III benchmarks. The benchmark ×
// variant cells (including each benchmark's BiNoCHS baseline) run on the
// sweep worker pool; slowdowns are assembled afterwards in row order.
func (s RunSpec) RunFig1(benchmarks []*traffic.Profile, scale Scale) (*Fig1Result, error) {
	variants := Fig1Variants(4, 4)
	res := &Fig1Result{}
	for _, v := range variants[1:] {
		res.Variants = append(res.Variants, v.Label)
	}
	nv := len(variants)
	runs := make([]*BenchRun, len(benchmarks)*nv)
	err := s.forEach(len(runs), func(i int) error {
		prof, v := benchmarks[i/nv], variants[i%nv]
		run, err := s.RunBenchmark(v.Cfg, prof, scale)
		if err != nil {
			if i%nv == 0 {
				return fmt.Errorf("fig1 baseline: %w", err)
			}
			return fmt.Errorf("fig1 %s on %s: %w", prof.Name, v.Label, err)
		}
		runs[i] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, prof := range benchmarks {
		base := runs[bi*nv]
		row := Fig1Row{Benchmark: prof.Name}
		for vi := 1; vi < nv; vi++ {
			run := runs[bi*nv+vi]
			slow := (float64(run.Runtime)/float64(base.Runtime) - 1) * 100
			row.SlowdownPct = append(row.SlowdownPct, slow)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// MaxSlowdown returns the largest slowdown of one variant column across
// all rows (the paper quotes per-mechanism worst cases: buffers/4 up to
// 25.7%, VC/4 up to 22.9%, width/4 up to 37.5%).
func (r *Fig1Result) MaxSlowdown(variant string) float64 {
	idx := -1
	for i, v := range r.Variants {
		if v == variant {
			idx = i
		}
	}
	if idx < 0 {
		return 0
	}
	max := 0.0
	for _, row := range r.Rows {
		if row.SlowdownPct[idx] > max {
			max = row.SlowdownPct[idx]
		}
	}
	return max
}

// MeanSlowdown returns the average slowdown of one variant column.
func (r *Fig1Result) MeanSlowdown(variant string) float64 {
	idx := -1
	for i, v := range r.Variants {
		if v == variant {
			idx = i
		}
	}
	if idx < 0 || len(r.Rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range r.Rows {
		sum += row.SlowdownPct[idx]
	}
	return sum / float64(len(r.Rows))
}
