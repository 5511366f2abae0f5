package checkpoint_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snacknoc/internal/attrib"
	"snacknoc/internal/checkpoint"
)

// TestAttribCheckpointRoundTrip pins the tentpole's checkpoint
// contract: attribution counters are part of a snapshot's identity.
// Restoring rewinds every slab to its value at Take, and a replayed leg
// accumulates exactly the counters of the original — across every layer
// (routers, NIs, RCUs, CPM, L1 MSHR integrals, engine) and shard count.
func TestAttribCheckpointRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		s := buildCoRun(t, shards)
		rec := attrib.NewRecorder()
		s.plat.SetAttrib(rec)
		s.sys.SetAttrib(rec)

		s.eng.Run(4096)
		st := checkpoint.Take(s.target())
		atTake := rec.Fold()

		s.eng.Run(4096)
		firstLeg := rec.Fold()
		if reflect.DeepEqual(firstLeg, atTake) {
			t.Fatal("second leg accumulated nothing; the round trip would be vacuous")
		}

		st.Restore()
		if got := rec.Fold(); !reflect.DeepEqual(got, atTake) {
			t.Fatalf("shards=%d: restore did not rewind attribution counters", shards)
		}

		s.eng.Run(4096)
		if got := rec.Fold(); !reflect.DeepEqual(got, firstLeg) {
			t.Fatalf("shards=%d: replayed leg diverged from the original counters", shards)
		}
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

	full := buildCoRun(t, 1)
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
	atHalf := fullRec.Fold()
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
	atEnd := fullRec.Fold()

	mid := buildCoRun(t, 1)
	mid.eng.Run(half)
	midRec := attrib.NewRecorder()
	attach(mid, midRec)
	mid.eng.Run(half)
	got := midRec.Fold()

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
