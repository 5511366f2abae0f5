package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary: a call from this
// package into a layer's public functions. Parent is the index of the
// span that was open when this one started (-1 at the top), and Pass
// ties together the spans of one pass.
type span struct {
	Name    string `json:"name"`
	Pass    int    `json:"pass"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: start returns a no-op and nothing is recorded.
type tracer struct {
	t0    time.Time
	spans []span
	open  int // index of the innermost open span, -1 when none
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

// start opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) start(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Pass: t.pass, Parent: t.open, StartNs: int64(time.Since(t.t0))})
	t.open = id
	return func() {
		t.spans[id].EndNs = int64(time.Since(t.t0))
		t.open = t.spans[id].Parent
	}
}

// nextPass starts a new pass id; spans opened from here on carry it.
func (t *tracer) nextPass() {
	if t != nil {
		t.pass++
	}
}

// totals sums, per span name, the spans' durations and their self
// times in seconds. A span's self time is its duration minus the part
// its direct children cover; children run one after another inside
// their parent, so that part is the sum of their durations.
func (t *tracer) totals() (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	if t == nil {
		return
	}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range t.spans {
		d := s.EndNs - s.StartNs
		total[s.Name] += float64(d) / 1e9
		self[s.Name] += float64(d-children[i]) / 1e9
	}
	return
}

// passes counts the distinct passes that hold a span of the given name.
func (t *tracer) passes(name string) int {
	if t == nil {
		return 0
	}
	seen := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == name {
			seen[s.Pass] = true
		}
	}
	return len(seen)
}

// write dumps the spans as JSON, with each name's total and self
// seconds in front.
func (t *tracer) write(path string) error {
	total, self := t.totals()
	type seconds struct {
		Total float64 `json:"total_s"`
		Self  float64 `json:"self_s"`
	}
	byName := map[string]seconds{}
	for name := range total {
		byName[name] = seconds{total[name], self[name]}
	}
	data, err := json.MarshalIndent(struct {
		ByName map[string]seconds `json:"by_name"`
		Spans  []span             `json:"spans"`
	}{byName, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
