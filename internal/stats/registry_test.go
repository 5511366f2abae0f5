package stats

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func buildRegistry() (*Registry, *Counter, *Histogram, *SampleSlab) {
	reg := NewRegistry()
	var c Counter
	c.Add(7)
	var busy Counter
	var clock Clock
	busy.Add(3)
	clock.Skip(10, 0)
	h := NewHistogram(1.0, 4)
	h.Observe(0.1)
	h.Observe(0.9)
	ts := MakeSampleSlab(2)
	for range 3 {
		ts.MarkBusy(0)
		ts.Close(0, 1, 2)
		ts.MarkBusy(1)
		ts.MarkBusy(1)
		ts.Close(1, 1, 2)
	}
	reg.AddCounter("c", &c)
	reg.AddUtilization("u", NewUtilization(&busy, &clock))
	reg.AddHistogram("h", h)
	reg.AddSeries("ts", &ts, 0)
	reg.AddGauge("g", func() float64 { return 42 })
	return reg, &c, h, &ts
}

func TestRegistrySnapshotFlattens(t *testing.T) {
	reg, _, _, _ := buildRegistry()
	s := reg.Snapshot("run")
	want := map[string]float64{
		"c.count":    7,
		"u.busy":     3,
		"u.total":    10,
		"u.fraction": 0.3,
		"h.total":    2,
		"h.bucket00": 1,
		"h.bucket01": 0,
		"h.bucket02": 0,
		"h.bucket03": 1,
		"ts.samples": 3,
		"ts.median":  0.5,
		"ts.max":     0.5,
		"g":          42,
	}
	if len(s.Values) != len(want) {
		t.Fatalf("snapshot has %d values, want %d: %v", len(s.Values), len(want), s.Keys())
	}
	for k, v := range want {
		if got := s.Values[k]; got != v {
			t.Fatalf("%s = %v, want %v", k, got, v)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	reg.AddCounter("x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.AddCounter("x", &c)
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg, _, _, _ := buildRegistry()
	snaps := []Snapshot{reg.Snapshot("a"), reg.Snapshot("b")}
	var buf bytes.Buffer
	if err := WriteSnapshotsJSON(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshots(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Label != "a" || got[1].Label != "b" {
		t.Fatalf("round trip lost snapshots: %+v", got)
	}
	for k, v := range snaps[0].Values {
		if got[0].Values[k] != v {
			t.Fatalf("round trip changed %s: %v != %v", k, got[0].Values[k], v)
		}
	}
	// Determinism: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteSnapshotsJSON(&buf2, snaps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot JSON is not deterministic")
	}
}

func TestSnapshotCSV(t *testing.T) {
	reg, _, _, _ := buildRegistry()
	var buf bytes.Buffer
	if err := WriteSnapshotsCSV(&buf, []Snapshot{reg.Snapshot("x")}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "label,metric,value\n") {
		t.Fatalf("missing CSV header: %q", out)
	}
	if !strings.Contains(out, "x,c.count,7\n") {
		t.Fatalf("missing counter row:\n%s", out)
	}
}

func TestDiffSnapshots(t *testing.T) {
	a := Snapshot{Label: "run", Values: map[string]float64{"x": 1, "y": 2, "only_a": 5}}
	b := Snapshot{Label: "run", Values: map[string]float64{"x": 1, "y": 3, "only_b": 6}}
	lines := DiffSnapshots([]Snapshot{a}, []Snapshot{b}, 0)
	if len(lines) != 3 {
		t.Fatalf("got %d diff lines: %v", len(lines), lines)
	}
	// Sorted by metric name: only_a, only_b, y.
	if lines[0].Metric != "only_a" || lines[0].Missing != "b" {
		t.Fatalf("line 0 = %+v", lines[0])
	}
	if lines[1].Metric != "only_b" || lines[1].Missing != "a" {
		t.Fatalf("line 1 = %+v", lines[1])
	}
	if lines[2].Metric != "y" || lines[2].A != 2 || lines[2].B != 3 {
		t.Fatalf("line 2 = %+v", lines[2])
	}
	if got := DiffSnapshots([]Snapshot{a}, []Snapshot{a}, 0); len(got) != 0 {
		t.Fatalf("identical snapshots diffed: %v", got)
	}
	if got := DiffSnapshots([]Snapshot{a}, []Snapshot{b}, 1.5); len(got) != 2 {
		t.Fatalf("tolerance should suppress the y line: %v", got)
	}
}

func TestDiffSnapshotsByLabel(t *testing.T) {
	a := []Snapshot{{Label: "l1", Values: map[string]float64{"x": 1}},
		{Label: "l2", Values: map[string]float64{"x": 1}}}
	b := []Snapshot{{Label: "l1", Values: map[string]float64{"x": 2}},
		{Label: "l3", Values: map[string]float64{"x": 1}}}
	lines := DiffSnapshots(a, b, 0)
	if len(lines) != 3 {
		t.Fatalf("got %v", lines)
	}
}

func TestHistogramBucketsReturnsCopy(t *testing.T) {
	h := NewHistogram(1.0, 4)
	h.Observe(0.1)
	snap := h.Buckets()
	h.Observe(0.1)
	h.Observe(0.1)
	if snap[0] != 1 {
		t.Fatalf("snapshot mutated by later observations: %v", snap)
	}
	snap[0] = 99
	if h.Buckets()[0] != 3 {
		t.Fatal("mutating the returned slice corrupted the histogram")
	}
}

func TestTimeSeriesSamplesReturnsCopy(t *testing.T) {
	ts := MakeSampleSlab(3)
	ts.MarkBusy(2)
	ts.Close(2, 1, 1)
	snap := ts.Column(2)
	ts.Close(2, 2, 1)
	ts.Record(2, 0.25)
	if len(snap) != 1 || snap[0] != 1 {
		t.Fatalf("snapshot mutated by later observations: %v", snap)
	}
	snap[0] = 99
	if got := ts.Column(2); !slices.Equal(got, []float64{1, 0, 0, 0.25}) {
		t.Fatalf("mutating the returned slice corrupted the series: %v", got)
	}
}
