package core

import (
	"fmt"
	"strings"
	"testing"

	"snacknoc/internal/flat"
	"snacknoc/internal/sim"
)

// freeLen returns the length of a free chain starting at head.
func freeLen(head int32, next func(int32) int32) int {
	n := 0
	for ; head >= 0; head = next(head) {
		n++
	}
	return n
}

// slabLayout prints the compute layer's slabs slot for slot, free lists
// in chain order: what a snapshot has to carry unchanged.
func slabLayout(p *Platform) string {
	var b strings.Builder
	s := &p.group.instrs
	fmt.Fprintf(&b, "group0 free %d:", s.free)
	for i := int32(0); i < s.n; i++ {
		sl := s.at(i)
		fmt.Fprintf(&b, " {%d %v %v %v %d}", sl.it.Seq, sl.it.L, sl.it.R, sl.retired, sl.next)
	}
	b.WriteString("\n")
	for _, r := range p.RCUs {
		fmt.Fprintf(&b, "%s exec %d inbox %v cells %v free %d sb %v %v wait %v out %v\n",
			r.Name(), r.exec, r.inbox, r.nodes, r.nodeFree, r.sbs, r.sbActive, r.waits, ringItems(&r.outQ))
	}
	for _, c := range p.CPMs {
		fmt.Fprintf(&b, "%s staged %d %v buf %v offload %v %v %v\n", c.Name(), c.staged, c.stagedTok,
			ringItems(&c.instrBuf), c.offload, c.offloadPending, c.offloadMem)
	}
	return b.String()
}

// TestMidKernelCheckpointRestoresSlabs snapshots a token-storm kernel
// mid-flight — asserted: live instruction slots and cells each beside a
// free list of two or more, and tokens in the CPM's overflow path — runs
// on so slots and cells are recycled in a different order, restores, and
// requires the instruction slab, every RCU's cells, tables and free
// lists and the CPM's buffers to be the saved ones slot for slot, and
// the replay to repeat the first run: the same result at the same cycle,
// ending in the same layout. A restore that rebuilt a chain or reordered
// a free list fails here.
func TestMidKernelCheckpointRestoresSlabs(t *testing.T) {
	eng := sim.NewEngine()
	p, err := NewStandalone(eng, 4, 4, true, DefaultPlatformConfig())
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if !p.CPM.Submit(buildTokenStorm(600), eng.Cycle(), func(r *Result) { res = r }) {
		t.Fatal("CPM busy")
	}
	slab := &p.group.instrs
	ready := func() bool {
		free := freeLen(slab.free, func(i int32) int32 { return slab.at(i).next })
		if free < 2 || int(slab.n) == free || len(p.CPM.offloadMem)+len(p.CPM.offloadPending) == 0 {
			return false
		}
		for _, r := range p.RCUs {
			free := freeLen(r.nodeFree, func(n int32) int32 { return r.nodes[n].next })
			if free >= 2 && len(r.nodes) > free {
				return true
			}
		}
		return false
	}
	if _, ok := eng.RunUntil(ready, 1_000_000); !ok {
		t.Fatal("no snapshot point with live slots and cells beside free lists and tokens offloaded")
	}
	clone := func(v any) any {
		switch x := v.(type) {
		case *InstrToken:
			c := *x
			return &c
		case *DataToken:
			c := *x
			return &c
		}
		return v
	}
	engS, netS, platS, saved := eng.SnapshotState(), p.Net.SnapshotState(clone), p.SnapshotState(), slabLayout(p)

	finish := func() string {
		t.Helper()
		res = nil
		if _, ok := eng.RunUntil(func() bool { return res != nil }, 10_000_000); !ok {
			t.Fatal("kernel did not complete")
		}
		return fmt.Sprintf("done %d values %v\n%s", res.DoneCycle, res.Values, slabLayout(p))
	}
	first := finish()

	p.Net.RestoreState(netS, clone)
	p.RestoreState(platS)
	eng.RestoreState(engS)
	if got := slabLayout(p); got != saved {
		t.Fatalf("slabs were saved as\n%sand restored as\n%s", saved, got)
	}
	if replay := finish(); replay != first {
		t.Errorf("the first run ended\n%sthe replay\n%s", first, replay)
	}
}

// ringItems returns q's entries, oldest first.
func ringItems[T any](q *flat.Ring[T]) []T {
	out := make([]T, q.Len())
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}
