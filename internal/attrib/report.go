package attrib

import (
	"fmt"
	"io"
	"sort"
)

// The report folder. Summarize consumes the flat key space produced by
// both Recorder.FoldInto (live counters) and stats.ReadSnapshots (a metrics
// JSON written with -attrib -metrics), so cmd/snackscope's two modes
// share one code path. Everything here is a pure function of the input
// map — the rendered report is deterministic and byte-pinnable.

// Score is one bottleneck hypothesis with its evidence strength in
// [0,1]. The verdict is the argmax over a fixed hypothesis order.
type Score struct {
	Name  string
	Value float64
}

// ReasonShare is one taxonomy cell's aggregate across a layer.
type ReasonShare struct {
	Reason Reason
	Count  float64
	Frac   float64 // of the layer's per-cycle total; 0 for event kinds
}

// LayerSummary aggregates one component class.
type LayerSummary struct {
	Kind    Kind
	Comps   int
	Total   float64       // summed per-cycle totals (0 for event kinds)
	Reasons []ReasonShare // sorted by count descending, ties in taxonomy order
}

// Summary is a folded attribution run: the dominant-bottleneck verdict,
// every hypothesis score, and per-layer rollups.
type Summary struct {
	Verdict string
	Scores  []Score
	Layers  []LayerSummary
}

// component is one label's reason vector during folding.
type component struct {
	label string
	kind  Kind
	n     [NumReasons]float64
}

// Summarize folds flat attribution values (see Recorder.Fold) into a
// deterministic bottleneck summary. Keys without the ".attrib." infix
// are ignored, so a whole metrics snapshot can be passed unfiltered.
func Summarize(values map[string]float64) *Summary {
	comps := make(map[string]*component)
	for key, v := range values {
		label, r, ok := splitKey(key)
		if !ok {
			continue
		}
		c := comps[label]
		if c == nil {
			c = &component{label: label, kind: KindOf(r)}
			comps[label] = c
		}
		c.n[r] = v
	}
	byKind := make([][]*component, NumKinds)
	labels := make([]string, 0, len(comps))
	for l := range comps {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		c := comps[l]
		byKind[c.kind] = append(byKind[c.kind], c)
	}

	s := &Summary{}
	for k := Kind(0); k < NumKinds; k++ {
		list := byKind[k]
		if len(list) == 0 {
			continue
		}
		ls := LayerSummary{Kind: k, Comps: len(list)}
		for _, r := range kindReasons[k] {
			var sum float64
			for _, c := range list {
				sum += c.n[r]
			}
			ls.Reasons = append(ls.Reasons, ReasonShare{Reason: r, Count: sum})
		}
		if perCycle(k) {
			for _, rs := range ls.Reasons {
				ls.Total += rs.Count
			}
			if ls.Total > 0 {
				for i := range ls.Reasons {
					ls.Reasons[i].Frac = ls.Reasons[i].Count / ls.Total
				}
			}
		}
		sort.SliceStable(ls.Reasons, func(i, j int) bool {
			return ls.Reasons[i].Count > ls.Reasons[j].Count
		})
		s.Layers = append(s.Layers, ls)
	}

	s.Scores = scores(byKind)
	s.Verdict = "no-data"
	best := 0.0
	for _, sc := range s.Scores {
		if sc.Value > best {
			best = sc.Value
			s.Verdict = sc.Name
		}
	}
	return s
}

// frac returns c.n[r] over the component's per-cycle total.
func (c *component) frac(r Reason) float64 {
	var t float64
	for _, kr := range kindReasons[c.kind] {
		t += c.n[kr]
	}
	if t == 0 {
		return 0
	}
	return c.n[r] / t
}

// scores evaluates the fixed bottleneck hypotheses. Ties in the verdict
// argmax break toward the earlier hypothesis, so the order here is part
// of the report contract:
//
//   - cpm-issue-bound / cpm-throttled: fractions of the CPM's busy
//     (non-idle) cycles — a finished kernel's idle tail must not dilute
//     the issue evidence.
//   - credit-stalled / vc-stalled / ni-backpressure: the MAX across
//     components — one saturated router is a bottleneck even when the
//     mesh average is low.
//   - rcu-compute-bound: the MEAN exec fraction across RCUs — one hot
//     RCU does not make the run compute-bound.
func scores(byKind [][]*component) []Score {
	cpmBusy := func(r Reason) float64 {
		var num, den float64
		for _, c := range byKind[KindCPM] {
			num += c.n[r]
			den += c.n[CPMIssue] + c.n[CPMThrottled] + c.n[CPMDrained]
		}
		if den == 0 {
			return 0
		}
		return num / den
	}
	maxFrac := func(k Kind, r Reason) float64 {
		best := 0.0
		for _, c := range byKind[k] {
			if f := c.frac(r); f > best {
				best = f
			}
		}
		return best
	}
	meanFrac := func(k Kind, r Reason) float64 {
		var sum float64
		n := 0
		for _, c := range byKind[k] {
			sum += c.frac(r)
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return []Score{
		{"cpm-issue-bound", cpmBusy(CPMIssue)},
		{"cpm-throttled", cpmBusy(CPMThrottled)},
		{"credit-stalled", maxFrac(KindRouter, RouterCreditStall)},
		{"vc-stalled", maxFrac(KindRouter, RouterVCStall)},
		{"rcu-compute-bound", meanFrac(KindRCU, RCUExec)},
		{"ni-backpressure", maxFrac(KindNI, NIBackpressure)},
	}
}

// Render writes the summary as a fixed-width text report.
func (s *Summary) Render(w io.Writer, title string) {
	fmt.Fprintf(w, "attribution report: %s\n", title)
	fmt.Fprintf(w, "verdict: %s\n\n", s.Verdict)
	fmt.Fprintf(w, "scores (argmax, ties break earlier):\n")
	for _, sc := range s.Scores {
		fmt.Fprintf(w, "  %-18s %6.3f\n", sc.Name, sc.Value)
	}
	for _, ls := range s.Layers {
		if perCycle(ls.Kind) {
			fmt.Fprintf(w, "\n%s layer (%d components, %.0f attributed cycles):\n",
				ls.Kind, ls.Comps, ls.Total)
			for _, rs := range ls.Reasons {
				fmt.Fprintf(w, "  %-24s %12.0f  %6.2f%%\n",
					rs.Reason, rs.Count, rs.Frac*100)
			}
		} else {
			fmt.Fprintf(w, "\n%s layer (%d components):\n", ls.Kind, ls.Comps)
			for _, rs := range ls.Reasons {
				fmt.Fprintf(w, "  %-24s %12.0f\n", rs.Reason, rs.Count)
			}
		}
	}
}
