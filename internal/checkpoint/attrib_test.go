package checkpoint_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snacknoc/internal/attrib"
	"snacknoc/internal/checkpoint"
)

// fold returns rec's counts under their metric keys.
func fold(rec *attrib.Recorder) map[string]float64 {
	m := map[string]float64{}
	rec.FoldInto(m)
	return m
}

// TestAttribCheckpointRoundTrip pins the tentpole's checkpoint
// contract: attribution counters are part of a snapshot's identity.
// Restoring rewinds every slab to its value at Take, and a replayed leg
// accumulates exactly the counters of the original — across every layer
// (routers, NIs, RCUs, CPM, L1 MSHR integrals, engine).
func TestAttribCheckpointRoundTrip(t *testing.T) {
	s := buildCoRun(t)
	rec := attrib.NewRecorder()
	s.plat.SetAttrib(rec)
	s.sys.SetAttrib(rec)

	s.eng.Run(4096)
	st := checkpoint.Take(s.target())
	atTake := fold(rec)

	s.eng.Run(4096)
	firstLeg := fold(rec)
	if reflect.DeepEqual(firstLeg, atTake) {
		t.Fatal("second leg accumulated nothing; the round trip would be vacuous")
	}

	st.Restore()
	if got := fold(rec); !reflect.DeepEqual(got, atTake) {
		t.Fatal("restore did not rewind attribution counters")
	}

	s.eng.Run(4096)
	if got := fold(rec); !reflect.DeepEqual(got, firstLeg) {
		t.Fatal("replayed leg diverged from the original counters")
	}
}

// TestAttachMidRunReadsTheDelta pins the attach contract: components
// count whether or not a recorder reads them, and Attach zeroes their
// counts, so a recorder attached after 4096 cycles reads at 8192 exactly
// what one attached from the start gained in between — on every layer,
// the engine's included.
//
// The L1 miss-cycle integral needs an exact reference. An L1 advances it
// only when its MSHR count changes, so the from-start recorder reads it
// at 4096 as of each L1's last change; System.SetAttrib instead closes it
// at the attach cycle (the re-base). The reference at 4096 is therefore
// the integral this test sums itself, cycle by cycle. The MSHR high-water
// mark is a maximum, not a sum, so the mid-run one is only bounded.
func TestAttachMidRunReadsTheDelta(t *testing.T) {
	const half = 4096
	attach := func(s *coRunSim, rec *attrib.Recorder) {
		s.plat.SetAttrib(rec)
		s.sys.SetAttrib(rec)
	}
	missKey := func(i int) string { return fmt.Sprintf("l1.%d.attrib.cache.miss-cycles", i) }

	full := buildCoRun(t)
	fullRec := attrib.NewRecorder()
	attach(full, fullRec)
	integral := make([]int64, len(full.sys.L1s))
	for c := 0; c < half; c++ {
		full.eng.Step()
		for i, l := range full.sys.L1s {
			integral[i] += int64(l.Outstanding())
		}
	}
	full.eng.Settle()
	atHalf := fold(fullRec)
	lagged := 0
	for i, v := range integral {
		if atHalf[missKey(i)] != float64(v) {
			lagged++
		}
		atHalf[missKey(i)] = float64(v)
	}
	if lagged == 0 {
		t.Fatal("no L1 had a miss outstanding across the attach cycle; the re-base check would be vacuous")
	}
	full.eng.Run(half)
	atEnd := fold(fullRec)

	mid := buildCoRun(t)
	mid.eng.Run(half)
	midRec := attrib.NewRecorder()
	attach(mid, midRec)
	mid.eng.Run(half)
	got := fold(midRec)

	if len(got) != len(atEnd) {
		t.Fatalf("mid-run recorder folded %d keys, from-start %d", len(got), len(atEnd))
	}
	for key, end := range atEnd {
		v, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s: missing from the mid-run fold", key)
		case strings.HasSuffix(key, ".cache.mshr-peak"):
			if v > end {
				t.Errorf("%s: mid-run peak %.0f above the whole run's %.0f", key, v, end)
			}
		case v != end-atHalf[key]:
			t.Errorf("%s: mid-run attach read %.0f, want %.0f - %.0f = %.0f",
				key, v, end, atHalf[key], end-atHalf[key])
		}
	}
}
