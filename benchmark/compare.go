package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one end-to-end metric on one workload.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
)

// verdict judges one end-to-end metric of a new run against a base run
// by the metric's bound. A difference within the bound is unchanged and
// one beyond it improved or regressed, but only when the samples of
// both runs spread (q3 - q1 over the median) no wider than the bound;
// otherwise the metric is unresolved, unless every sample of the new
// run reads better than every sample of the base.
func verdict(def metricDef, base, cur metricValue) string {
	if base.Value == 0 {
		return unresolved
	}
	worse := cur.Value/base.Value - 1 // share by which the new run is worse
	if def.Better == "higher" {
		worse = -worse
	}
	if bs, cs := base.Samples, cur.Samples; bs != nil && cs != nil && max(bs.iqrShare(), cs.iqrShare()) > def.Bound {
		if (def.Better == "lower" && cs.Max < bs.Min) || (def.Better == "higher" && cs.Min > bs.Max) {
			return improved
		}
		return unresolved
	}
	switch {
	case worse > def.Bound:
		return regressed
	case worse < -def.Bound:
		return improved
	}
	return unchanged
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(results)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload and end-to-end metric, base, new,
// their ratio and a verdict; checks that digests and every exact count
// are equal; and lists the per-layer self times that account for a
// wall_s difference. It returns 1 if anything regressed, was left
// unresolved, or differed where it must not.
func compareFiles(w io.Writer, basePath, newPath string) (int, error) {
	base, err := readResults(basePath)
	if err != nil {
		return 0, err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return 0, err
	}
	byName := map[string]*workloadResult{}
	for i := range cur.Workloads {
		byName[cur.Workloads[i].Name] = &cur.Workloads[i]
	}
	code := 0
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for i := range base.Workloads {
		b := &base.Workloads[i]
		c := byName[b.Name]
		if c == nil {
			fmt.Fprintf(w, "%-20s missing from %s\n", b.Name, newPath)
			code = 1
			continue
		}
		for _, def := range endToEnd {
			bv, cv := b.EndToEnd[def.Name], c.EndToEnd[def.Name]
			v := verdict(def, bv, cv)
			if v == regressed || v == unresolved {
				code = 1
			}
			ratio := 0.0
			if bv.Value != 0 {
				ratio = cv.Value / bv.Value
			}
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %8.4f  %s (bound %.0f%%)\n",
				b.Name, def.Name, bv.Value, cv.Value, ratio, v, def.Bound*100)
		}
		if b.Failed+c.Failed > 0 {
			fmt.Fprintf(w, "%-20s failed passes: base %d of %d, new %d of %d\n", b.Name, b.Failed, b.Attempted, c.Failed, c.Attempted)
			code = 1
		}
		if b.Digest != c.Digest {
			fmt.Fprintf(w, "%-20s digest differs: %s, %s\n", b.Name, b.Digest, c.Digest)
			code = 1
		}
		for _, def := range perLayer {
			if def.Source != srcCount {
				continue
			}
			if bv, cv := b.PerLayer[def.Name].Value, c.PerLayer[def.Name].Value; bv != cv {
				fmt.Fprintf(w, "%-20s count %s differs: %v, %v\n", b.Name, def.Name, bv, cv)
				code = 1
			}
		}
		// Where a wall_s difference sits: the layers' CPU seconds per
		// pass, largest change first.
		type delta struct {
			name      string
			base, cur float64
		}
		var ds []delta
		for _, l := range layers {
			n := selfMetric(l)
			ds = append(ds, delta{n, b.PerLayer[n].Value, c.PerLayer[n].Value})
		}
		sort.SliceStable(ds, func(i, j int) bool {
			return math.Abs(ds[i].cur-ds[i].base) > math.Abs(ds[j].cur-ds[j].base)
		})
		dw := c.EndToEnd["wall_s"].Value - b.EndToEnd["wall_s"].Value
		fmt.Fprintf(w, "%-20s wall_s %+.4f s; per-layer self time, traced run:", b.Name, dw)
		for _, d := range ds[:4] {
			fmt.Fprintf(w, " %s %+.4f", d.name, d.cur-d.base)
		}
		fmt.Fprintln(w)
	}
	return code, nil
}
