package attrib

import (
	"reflect"
	"strings"
	"testing"
)

// TestNilRecorderAttachesNothing pins the disabled-path contract: a nil
// recorder's Attach leaves the counts untouched, and the recorder
// reports nothing.
func TestNilRecorderAttachesNothing(t *testing.T) {
	var n Counts
	n.Inc(RouterActive)
	n.Add(RouterEmpty, 100)
	want := n

	var rec *Recorder
	rec.Attach(KindRouter, "r", &n)
	if n != want {
		t.Fatalf("nil recorder's Attach changed the counts: %v, want %v", n, want)
	}
	if rec.Fold() != nil {
		t.Fatal("nil recorder reported components")
	}
	rec.FoldInto(map[string]float64{}) // must not panic
	if rec.StartSampling(100, func() {}, nil) != nil {
		t.Fatal("nil recorder produced a sampler")
	}
}

// TestKindReasonMapping checks KindOf agrees with the kindReasons table
// and that names are layer-prefixed and invertible.
func TestKindReasonMapping(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if len(kindReasons[k]) > len(Counts{}) {
			t.Errorf("kind %v has %d reasons, more than a Counts holds", k, len(kindReasons[k]))
		}
		for _, r := range kindReasons[k] {
			if KindOf(r) != k {
				t.Errorf("KindOf(%v) = %v, want %v", r, KindOf(r), k)
			}
			if !strings.HasPrefix(r.String(), k.String()+".") {
				t.Errorf("reason %q not prefixed with layer %q", r, k)
			}
			if got, ok := reasonByName[r.String()]; !ok || got != r {
				t.Errorf("reasonByName[%q] = %v, %v", r, got, ok)
			}
		}
	}
	total := 0
	for k := Kind(0); k < NumKinds; k++ {
		total += len(kindReasons[k])
	}
	if total != int(NumReasons) {
		t.Fatalf("kindReasons covers %d reasons, want %d", total, NumReasons)
	}
}

func TestSplitKey(t *testing.T) {
	label, r, ok := splitKey("router3.attrib.router.vc-stall")
	if !ok || label != "router3" || r != RouterVCStall {
		t.Fatalf("splitKey = %q, %v, %v", label, r, ok)
	}
	for _, bad := range []string{
		"net.packets.injected",        // no infix
		"router3.attrib.router.bogus", // unknown reason
		"router3.attrib.",             // empty reason
		".attrib.router.active" + "x", // trailing junk
	} {
		if _, _, ok := splitKey(bad); ok {
			t.Errorf("splitKey(%q) unexpectedly parsed", bad)
		}
	}
}

// TestFoldStateRoundTrip: Attach zeroes the counts, they fold into
// labelled keys, a copy of the Counts value (what a checkpoint holds)
// rewinds them, and FoldInto sums across legs.
func TestFoldStateRoundTrip(t *testing.T) {
	rec := NewRecorder()
	r := Counts{9, 9, 9, 9}
	rec.Attach(KindRouter, "router0", &r)
	if r != (Counts{}) {
		t.Fatalf("Attach did not zero the counts: %v", r)
	}
	r.Inc(RouterActive)
	r.Add(RouterEmpty, 9)
	r.Max(RouterVCStall, 3)
	r.Max(RouterVCStall, 2)
	m := rec.Fold()
	if m["router0.attrib.router.active"] != 1 || m["router0.attrib.router.empty"] != 9 ||
		m["router0.attrib.router.vc-stall"] != 3 {
		t.Fatalf("fold = %v", m)
	}
	saved := r
	r.Inc(RouterActive)
	r = saved
	if got := rec.Fold(); !reflect.DeepEqual(got, m) {
		t.Fatalf("restore did not rewind counters: %v != %v", got, m)
	}
	rec.FoldInto(m) // second leg doubles every key
	if m["router0.attrib.router.empty"] != 18 {
		t.Fatalf("FoldInto did not accumulate: %v", m)
	}
}

func TestCheckTotals(t *testing.T) {
	ok := map[string]float64{
		"router0.attrib.router.active": 40,
		"router0.attrib.router.empty":  60,
		"cpm0.attrib.cpm.issue":        100,
		"engine.attrib.engine.evals":   5, // event kind, exempt from the sum
		"net.packets.injected":         7, // non-attrib keys ignored
	}
	if err := CheckTotals(ok, 100); err != nil {
		t.Fatal(err)
	}
	bad := map[string]float64{"router0.attrib.router.active": 99}
	if err := CheckTotals(bad, 100); err == nil {
		t.Fatal("CheckTotals accepted a short component")
	}
	if err := CheckTotals(bad, 0); err != nil {
		t.Fatal("cycles<=0 must skip the cross-check")
	}
}

// synth builds a flat value map for one per-cycle component.
func synth(m map[string]float64, label string, counts map[Reason]float64) {
	for r, v := range counts {
		m[label+".attrib."+r.String()] = v
	}
}

// TestSummarizeVerdicts drives the fixed bottleneck hypotheses through
// synthetic counter maps.
func TestSummarizeVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		build   func(map[string]float64)
		verdict string
	}{
		{"cpm-issue-bound", func(m map[string]float64) {
			synth(m, "cpm0", map[Reason]float64{CPMIssue: 90, CPMDrained: 10, CPMIdle: 900})
		}, "cpm-issue-bound"},
		{"cpm-throttled", func(m map[string]float64) {
			synth(m, "cpm0", map[Reason]float64{CPMIssue: 10, CPMThrottled: 90})
		}, "cpm-throttled"},
		{"credit-stalled-max", func(m map[string]float64) {
			// One saturated router outweighs a quiet mesh average.
			synth(m, "router0", map[Reason]float64{RouterCreditStall: 95, RouterActive: 5})
			synth(m, "router1", map[Reason]float64{RouterEmpty: 100})
			synth(m, "cpm0", map[Reason]float64{CPMIssue: 10, CPMDrained: 90})
		}, "credit-stalled"},
		{"vc-stalled", func(m map[string]float64) {
			synth(m, "router0", map[Reason]float64{RouterVCStall: 80, RouterActive: 20})
		}, "vc-stalled"},
		{"rcu-compute-bound-mean", func(m map[string]float64) {
			// The MEAN across RCUs decides: one hot RCU is not enough.
			synth(m, "rcu0", map[Reason]float64{RCUExec: 90, RCUIdle: 10})
			synth(m, "rcu1", map[Reason]float64{RCUExec: 80, RCUIdle: 20})
		}, "rcu-compute-bound"},
		{"ni-backpressure", func(m map[string]float64) {
			synth(m, "ni0", map[Reason]float64{NIBackpressure: 70, NIActive: 30})
		}, "ni-backpressure"},
		{"no-data", func(m map[string]float64) {}, "no-data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := map[string]float64{}
			tc.build(m)
			s := Summarize(m)
			if s.Verdict != tc.verdict {
				t.Fatalf("verdict %q, want %q\n%s", s.Verdict, tc.verdict, s.RenderString(tc.name))
			}
		})
	}
}

// TestSummarizeLayout pins report structure: layers in kind order,
// reasons sorted by count descending, fractions over the layer total.
func TestSummarizeLayout(t *testing.T) {
	m := map[string]float64{}
	synth(m, "router0", map[Reason]float64{RouterActive: 30, RouterEmpty: 70})
	synth(m, "router1", map[Reason]float64{RouterActive: 10, RouterEmpty: 90})
	synth(m, "cpm0", map[Reason]float64{CPMIssue: 100})
	s := Summarize(m)
	if len(s.Layers) != 2 || s.Layers[0].Kind != KindRouter || s.Layers[1].Kind != KindCPM {
		t.Fatalf("layers = %+v", s.Layers)
	}
	routers := s.Layers[0]
	if routers.Comps != 2 || routers.Total != 200 {
		t.Fatalf("router layer = %+v", routers)
	}
	if routers.Reasons[0].Reason != RouterEmpty || routers.Reasons[0].Count != 160 {
		t.Fatalf("top reason = %+v", routers.Reasons[0])
	}
	if f := routers.Reasons[0].Frac; f != 0.8 {
		t.Fatalf("top reason frac = %v, want 0.8", f)
	}
	// Rendering is deterministic for a fixed map.
	if a, b := s.RenderString("x"), Summarize(m).RenderString("x"); a != b {
		t.Fatal("render not deterministic")
	}
}
