package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(Instant(KindInject, 1, 0)) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil || tr.Name() != "" {
		t.Fatal("nil tracer should report empty state")
	}
}

func TestEmitUnbounded(t *testing.T) {
	tr := New("t", 0)
	for i := 0; i < 100; i++ {
		tr.Emit(Instant(KindFlitArrive, int64(i), 3))
	}
	if tr.Len() != 100 || tr.Dropped() != 0 {
		t.Fatalf("len %d dropped %d", tr.Len(), tr.Dropped())
	}
	recs := tr.Records()
	for i, r := range recs {
		if r.Cycle != int64(i) {
			t.Fatalf("record %d has cycle %d", i, r.Cycle)
		}
	}
}

func TestRingKeepsNewest(t *testing.T) {
	tr := New("t", 10)
	for i := 0; i < 25; i++ {
		tr.Emit(Instant(KindFlitArrive, int64(i), 0))
	}
	if tr.Len() != 10 {
		t.Fatalf("ring len %d, want 10", tr.Len())
	}
	if tr.Dropped() != 15 {
		t.Fatalf("dropped %d, want 15", tr.Dropped())
	}
	recs := tr.Records()
	for i, r := range recs {
		if want := int64(15 + i); r.Cycle != want {
			t.Fatalf("ring record %d has cycle %d, want %d", i, r.Cycle, want)
		}
	}
}

func TestRingExactFitDoesNotWrap(t *testing.T) {
	tr := New("t", 5)
	for i := 0; i < 5; i++ {
		tr.Emit(Instant(KindEject, int64(i), 0))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d before overflow", tr.Dropped())
	}
	if got := tr.Records(); len(got) != 5 || got[0].Cycle != 0 {
		t.Fatalf("records %v", got)
	}
}

func TestWriteJSONValidates(t *testing.T) {
	tr := New("unit", 0)
	tr.Emit(Instant(KindInject, 5, 2))
	tr.Emit(Record{Kind: KindSwitch, Cycle: 9, Start: 6, Node: 2, Packet: 7,
		Seq: 0, Class: ClassSnack, Port: 1, VNet: 2, VC: 0})
	tr.Emit(Record{Kind: KindDeliver, Cycle: 20, Start: 5, Node: 4, Packet: 7,
		Seq: -1, Port: -1, VNet: 2, VC: -1})
	tr.Emit(Instant(KindRCUExec, 12, 2))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("self-emitted JSON failed validation: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"pkt7.0"`, `"router2"`, `"ni2"`, `"snack2"`,
		`"class":"snack"`, `"ph":"X"`, `"dur":3`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump lacks %s:\n%s", want, out)
		}
	}
}

func TestCollectorMergesDeterministically(t *testing.T) {
	c := NewCollector(0)
	b := c.NewTracer("bbb")
	a := c.NewTracer("aaa")
	a.Emit(Instant(KindInject, 1, 0))
	b.Emit(Instant(KindEject, 2, 1))
	var buf1, buf2 bytes.Buffer
	if err := c.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("collector dump is not deterministic")
	}
	if err := Validate(buf1.Bytes()); err != nil {
		t.Fatalf("merged dump invalid: %v", err)
	}
	// Name-sorted: "aaa" must get pid 1 regardless of registration order.
	out := buf1.String()
	if !strings.Contains(out, `"pid":1,"tid":0,"args":{"name":"aaa"}`) {
		t.Fatalf("tracers not sorted by name:\n%s", out)
	}
	if c.Events() != 2 {
		t.Fatalf("Events() = %d", c.Events())
	}
}

// TestCounterTracks pins the Perfetto counter-track path the attrib
// sampler uses: named tracks, "C"-phase events carrying the windowed
// delta, and a validating dump.
func TestCounterTracks(t *testing.T) {
	var nilTr *Tracer
	if nilTr.CounterTrack("x") != -1 || nilTr.CounterTrackName(0) != "" {
		t.Fatal("nil tracer should reject counter tracks")
	}
	tr := New("unit", 0)
	a := tr.CounterTrack("attrib.router.active")
	b := tr.CounterTrack("attrib.cpm.issue")
	if a == b || tr.CounterTrackName(a) != "attrib.router.active" {
		t.Fatalf("track ids a=%d b=%d name=%q", a, b, tr.CounterTrackName(a))
	}
	tr.Emit(Record{Kind: KindCounter, Cycle: 100, Node: -1, Aux: a, Packet: 42,
		Seq: -1, Port: -1, VNet: -1, VC: -1})
	tr.Emit(Record{Kind: KindCounter, Cycle: 200, Node: -1, Aux: b, Packet: 7,
		Seq: -1, Port: -1, VNet: -1, VC: -1})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("counter dump failed validation: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{`"ph":"C"`, `"attrib.router.active"`, `"value":42`} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump lacks %s:\n%s", want, out)
		}
	}
}

// TestDroppedSurfaces pins the ring-overflow satellite: the dropped
// count reaches the process_name marker and DroppedFromJSON recovers it
// from the dump (what snackscope check-trace warns on).
func TestDroppedSurfaces(t *testing.T) {
	tr := New("ring", 4)
	for i := 0; i < 10; i++ {
		tr.Emit(Instant(KindInject, int64(i), 0))
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := DroppedFromJSON(buf.Bytes()); got != 6 {
		t.Fatalf("DroppedFromJSON = %d, want 6", got)
	}
	// An unbounded tracer reports zero.
	clean := New("ok", 0)
	clean.Emit(Instant(KindInject, 1, 0))
	buf.Reset()
	if err := clean.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := DroppedFromJSON(buf.Bytes()); got != 0 {
		t.Fatalf("DroppedFromJSON on a clean dump = %d, want 0", got)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"no traceEvents":  `{"foo":[]}`,
		"bad event":       `{"traceEvents":[42]}`,
		"no name":         `{"traceEvents":[{"ph":"i","ts":1,"pid":1}]}`,
		"no phase":        `{"traceEvents":[{"name":"x","ts":1,"pid":1}]}`,
		"unknown phase":   `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":1}]}`,
		"X without dur":   `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1}]}`,
		"negative ts":     `{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":1}]}`,
		"missing pid":     `{"traceEvents":[{"name":"x","ph":"i","ts":1}]}`,
		"metadata noargs": `{"traceEvents":[{"name":"process_name","ph":"M","pid":1}]}`,
	}
	for label, doc := range cases {
		if err := Validate([]byte(doc)); err == nil {
			t.Errorf("%s: validated but should not", label)
		}
	}
	if err := Validate([]byte(`[]`)); err != nil {
		t.Errorf("bare empty array should validate: %v", err)
	}
}
