package stats

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
)

// Registry names every measurement of one simulation so the whole set can
// be exported as a single flat snapshot and diffed structurally between
// runs. Components register the stat objects they already own (nothing is
// double-counted and registration adds no per-cycle cost); Snapshot reads
// them all at once.
//
// A Registry belongs to one simulation and is not locked; parallel sweeps
// build one per cell.
type Registry struct {
	names   []string // registration order, for deterministic iteration
	entries map[string]entry
}

type entry struct {
	counter *Counter
	util    *Utilization
	hist    *Histogram
	series  *SampleSlab
	col     int // series column
	gauge   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

func (r *Registry) add(name string, e entry) {
	if name == "" {
		panic("stats: Registry with empty metric name")
	}
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("stats: duplicate metric %q", name))
	}
	r.entries[name] = e
	r.names = append(r.names, name)
}

// AddCounter registers a counter under name.
func (r *Registry) AddCounter(name string, c *Counter) { r.add(name, entry{counter: c}) }

// AddUtilization registers a utilization tracker under name.
func (r *Registry) AddUtilization(name string, u *Utilization) { r.add(name, entry{util: u}) }

// AddHistogram registers a histogram under name.
func (r *Registry) AddHistogram(name string, h *Histogram) { r.add(name, entry{hist: h}) }

// AddSeries registers column col of s, a sampled series, under name.
// Snapshots summarize it (count, median, max) rather than exporting
// every sample.
func (r *Registry) AddSeries(name string, s *SampleSlab, col int) {
	r.add(name, entry{series: s, col: col})
}

// AddGauge registers a derived value computed at snapshot time.
func (r *Registry) AddGauge(name string, f func() float64) { r.add(name, entry{gauge: f}) }

// Snapshot flattens every registered metric into scalar key/value pairs.
// Counters export .count; utilizations .busy/.total/.fraction; histograms
// .total and .bucketNN; series .samples/.median/.max; gauges their value.
func (r *Registry) Snapshot(label string) Snapshot {
	s := Snapshot{Label: label, Values: make(map[string]float64, 2*len(r.names))}
	for _, name := range r.names {
		e := r.entries[name]
		switch {
		case e.counter != nil:
			s.Values[name+".count"] = float64(e.counter.Value())
		case e.util != nil:
			s.Values[name+".busy"] = float64(e.util.Busy())
			s.Values[name+".total"] = float64(e.util.Total())
			s.Values[name+".fraction"] = e.util.Fraction()
		case e.hist != nil:
			s.Values[name+".total"] = float64(e.hist.Total())
			for i, c := range e.hist.Buckets() {
				s.Values[fmt.Sprintf("%s.bucket%02d", name, i)] = float64(c)
			}
		case e.series != nil:
			samples := e.series.Column(e.col)
			s.Values[name+".samples"] = float64(len(samples))
			s.Values[name+".median"] = Median(samples)
			s.Values[name+".max"] = slices.Max(append(samples, 0))
		case e.gauge != nil:
			s.Values[name] = e.gauge()
		}
	}
	return s
}

// Snapshot is one run's flattened metrics, keyed by metric name.
type Snapshot struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"metrics"`
}

// Keys returns the metric names in sorted order.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s.Values))
	for k := range s.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatValue renders a metric value with the shortest round-trippable
// decimal form, so snapshots are byte-deterministic.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonString quotes s by JSON's rules. Go's %q is not JSON for a control
// byte or invalid UTF-8: it writes \x01 where JSON needs \u0001.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always marshals
	return string(b)
}

// WriteSnapshotsJSON writes snapshots as one deterministic JSON document:
// {"snapshots":[{"label":...,"metrics":{sorted keys}}]}.
func WriteSnapshotsJSON(w io.Writer, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"snapshots\": [")
	for i, s := range snaps {
		if i > 0 {
			bw.WriteString(",")
		}
		fmt.Fprintf(bw, "\n  {\"label\": %s, \"metrics\": {", jsonString(s.Label))
		for j, k := range s.Keys() {
			if j > 0 {
				bw.WriteString(",")
			}
			fmt.Fprintf(bw, "\n    %s: %s", jsonString(k), formatValue(s.Values[k]))
		}
		bw.WriteString("\n  }}")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteSnapshotsCSV writes snapshots as label,metric,value rows with a
// header, sorted like the JSON form.
func WriteSnapshotsCSV(w io.Writer, snaps []Snapshot) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("label,metric,value\n")
	for _, s := range snaps {
		for _, k := range s.Keys() {
			fmt.Fprintf(bw, "%s,%s,%s\n", s.Label, k, formatValue(s.Values[k]))
		}
	}
	return bw.Flush()
}

// ReadSnapshots parses a document written by WriteSnapshotsJSON (or a
// single bare snapshot object).
func ReadSnapshots(data []byte) ([]Snapshot, error) {
	var doc struct {
		Snapshots []Snapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("stats: bad snapshot document: %w", err)
	}
	if doc.Snapshots == nil {
		var one Snapshot
		if err := json.Unmarshal(data, &one); err != nil || one.Values == nil {
			return nil, fmt.Errorf("stats: document has no \"snapshots\" array")
		}
		return []Snapshot{one}, nil
	}
	return doc.Snapshots, nil
}

// DiffLine is one divergence between two snapshots.
type DiffLine struct {
	Label  string
	Metric string
	A, B   float64
	// Missing is "a" or "b" when the metric exists on only one side.
	Missing string
}

// String renders the divergence for terminal output.
func (d DiffLine) String() string {
	switch d.Missing {
	case "a":
		return fmt.Sprintf("%s: %s only in B (%s)", d.Label, d.Metric, formatValue(d.B))
	case "b":
		return fmt.Sprintf("%s: %s only in A (%s)", d.Label, d.Metric, formatValue(d.A))
	default:
		return fmt.Sprintf("%s: %s  %s -> %s (%+g)",
			d.Label, d.Metric, formatValue(d.A), formatValue(d.B), d.B-d.A)
	}
}

// DiffSnapshots structurally compares two snapshot sets, matching
// snapshots by label (sets with exactly one snapshot each are compared
// directly regardless of label, so two differently-named presets diff
// cleanly). Values differing by more than tol (absolute) are reported,
// as are metrics or labels present on one side only.
func DiffSnapshots(a, b []Snapshot, tol float64) []DiffLine {
	if len(a) == 1 && len(b) == 1 {
		label := a[0].Label
		if b[0].Label != label {
			label = a[0].Label + " vs " + b[0].Label
		}
		return diffOne(label, a[0].Values, b[0].Values, tol)
	}
	am := make(map[string]Snapshot, len(a))
	var lines []DiffLine
	for _, s := range a {
		am[s.Label] = s
	}
	bm := make(map[string]Snapshot, len(b))
	for _, s := range b {
		bm[s.Label] = s
		if as, ok := am[s.Label]; ok {
			lines = append(lines, diffOne(s.Label, as.Values, s.Values, tol)...)
		} else {
			lines = append(lines, DiffLine{Label: s.Label, Metric: "(whole snapshot)", Missing: "a"})
		}
	}
	for _, s := range a {
		if _, ok := bm[s.Label]; !ok {
			lines = append(lines, DiffLine{Label: s.Label, Metric: "(whole snapshot)", Missing: "b"})
		}
	}
	return lines
}

func diffOne(label string, a, b map[string]float64, tol float64) []DiffLine {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var lines []DiffLine
	for _, k := range sorted {
		av, aok := a[k]
		bv, bok := b[k]
		switch {
		case !aok:
			lines = append(lines, DiffLine{Label: label, Metric: k, B: bv, Missing: "a"})
		case !bok:
			lines = append(lines, DiffLine{Label: label, Metric: k, A: av, Missing: "b"})
		case abs(av-bv) > tol:
			lines = append(lines, DiffLine{Label: label, Metric: k, A: av, B: bv})
		}
	}
	return lines
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
