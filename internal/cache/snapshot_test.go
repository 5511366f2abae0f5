package cache

import (
	"fmt"
	"reflect"
	"testing"

	"snacknoc/internal/stats"
)

// parkedEvents returns how many L1 parked accesses and memory-node DRAM
// reads are waiting on an engine event, and the length of the longest
// free list beside a live record of each kind.
func parkedEvents(s *System) (l1, dram, l1Free, dramFree int) {
	count := func(live, free int, total, longest *int) {
		*total += live
		if live > 0 && free > *longest {
			*longest = free
		}
	}
	for _, l := range s.L1s {
		count(live(&l.parked), len(l.parked.FreeSlots()), &l1, &l1Free)
	}
	for _, mn := range s.memNodes {
		r := &s.Mems[mn].reads
		count(live(r), len(r.FreeSlots()), &dram, &dramFree)
	}
	return
}

// chainState reports the chains at a snapshot point: the most waiters
// and the most retries on one MSHR (waiters counted on an MSHR with a
// retry), the most pending requests on one transaction, the longest
// free list of an L1's waiter slab and that of the pending slab.
func chainState(s *System) (waiters, retries, pending, waitFree, pendFree int) {
	length := func(l *links[parkedAccess], c chain) int {
		n := 0
		for i := c.head; i != 0; i = l.recs[i-1].next {
			n++
		}
		return n
	}
	for _, l := range s.L1s {
		for n := range l.mshrHead {
			for i := l.mshrHead[n]; i >= 0; i = l.mshrSlab[i].next {
				if r := length(&l.waits, l.mshrSlab[i].retry); r > 0 {
					waiters, retries = max(waiters, length(&l.waits, l.mshrSlab[i].waiters)), max(retries, r)
				}
			}
		}
		waitFree = max(waitFree, freeLen(&l.waits))
	}
	for k := range int32(s.txns.Len()) {
		n := 0
		for i := s.txns.At(k).pending.head; i != 0; i = s.pending.recs[i-1].next {
			n++
		}
		pending = max(pending, n)
	}
	return waiters, retries, pending, waitFree, freeLen(&s.pending)
}

// slabLayout prints every parked-event, MSHR, waiter, home-transaction
// and pending-request slab slot for slot, chain links and free lists in
// order: what a snapshot has to carry unchanged.
func slabLayout(s *System) string {
	var out string
	for i, l := range s.L1s {
		out += fmt.Sprintf("l1.%d", i)
		for k := range int32(l.parked.Len()) {
			p := l.parked.At(k)
			out += fmt.Sprintf(" {%d %v %v %d %d %v}", p.block, p.write, p.retry, p.starts, p.misses, p.done != nil)
		}
		out += fmt.Sprintf(" free %v\n mshr %v", l.parked.FreeSlots(), l.mshrHead)
		for _, m := range l.mshrSlab {
			out += fmt.Sprintf(" %v", m)
		}
		out += fmt.Sprintf(" free %d\n waits", l.mshrFree)
		for _, w := range l.waits.recs {
			out += fmt.Sprintf(" {%v %d %d %v %d}", w.v.write, w.v.starts, w.v.misses, w.v.done != nil, w.next)
		}
		out += fmt.Sprintf(" free %d\n", l.waits.free)
	}
	out += "txns"
	for k := range int32(s.txns.Len()) {
		t := s.txns.At(k)
		out += fmt.Sprintf(" {%v %v %t%t%t %d}", t.req, t.pending, t.waitRecall, t.waitMem, t.wentToMem, t.needAcks)
	}
	out += fmt.Sprintf(" free %v\npending %v free %d\n", s.txns.FreeSlots(), s.pending.recs, s.pending.free)
	for _, mn := range s.memNodes {
		out += fmt.Sprintf("mem.%d %v\n", mn, s.Mems[mn].reads)
	}
	return out
}

// TestMidFlightCheckpointReplays snapshots the hierarchy while typed
// events are pending and chains are live — asserted: a DRAM read slot
// and an L1 parked access live, each beside a free list of two or more
// slots; an MSHR with two waiters and a retry; a transaction with a
// pending request; free lists of two or more in an L1's waiter slab and
// in the pending slab — runs on so the live slabs and free lists are
// recycled in a different order, restores, and requires the restored
// slabs to be the saved ones slot for slot and the replay to repeat the
// first run exactly: every access's completion cycle, the miss-latency
// and hit-rate statistics, the engine's and the network's counts, and
// the slabs' final layout. The pending events and the chains name slab
// slots, so a restore that dropped a slab, renumbered it or reordered
// its free list fails here.
func TestMidFlightCheckpointReplays(t *testing.T) {
	eng, sys := newSystem(t)
	reg := stats.NewRegistry()
	eng.RegisterMetrics(reg)
	sys.Net.RegisterMetrics(reg)

	rng := uint64(2020)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	// Completions land in *doneAt, so the callbacks the snapshot shares
	// with the live run record into whichever run is current.
	var doneAt *[]int64
	issue := func(node int, block uint64, write bool) {
		id := len(*doneAt)
		*doneAt = append(*doneAt, -1)
		sys.L1s[node].Access(block, write, func(c int64) { (*doneAt)[id] = c })
	}
	// stress issues rounds of random reads and writes over a block range
	// wide enough to miss at the home banks and narrow enough to share;
	// some reads are chased by a write to the same block, which parks
	// behind the read's miss and is re-issued by a retry event.
	stress := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for n := 0; n < 16; n++ {
				if next(3) == 0 {
					continue
				}
				block, write := uint64(next(4096)), next(4) == 0
				issue(n, block, write)
				if !write && next(8) == 0 {
					issue(n, block, true)
				}
			}
			eng.Run(int64(5 + next(20)))
		}
	}
	drain := func() {
		t.Helper()
		allDone := func() bool {
			for _, c := range *doneAt {
				if c < 0 {
					return false
				}
			}
			return true
		}
		if _, ok := eng.RunUntil(allDone, 1_000_000); !ok {
			t.Fatal("accesses never completed")
		}
		eng.Run(5000) // trailing writebacks and acks
	}
	type outcome struct {
		doneAt   []int64
		missLat  []float64
		l1, l2   float64
		counts   map[string]float64
		slabs    string
		endCycle int64
	}
	finish := func() outcome {
		drain()
		o := outcome{doneAt: *doneAt, l1: sys.L1HitRate(), l2: sys.L2HitRate(),
			counts: reg.Snapshot("").Values, slabs: slabLayout(sys), endCycle: eng.Cycle()}
		for _, l := range sys.L1s {
			o.missLat = append(o.missLat, l.AvgMissLatency())
		}
		return o
	}

	warm := []int64{}
	doneAt = &warm
	// Blocks outside the stressed range: resident stays in node 3's L1;
	// the others are cold.
	const resident, merged, pended, retried = 1<<20 + 3, 1<<20 + 100, 1<<20 + 200, 1<<20 + 300
	access(t, eng, sys, 3, resident, false)
	for i := 0; i < 3; i++ { // three hit completions at once: three slots
		issue(3, resident, false)
	}
	// Grow the chain slabs' free lists: five readers merge on one MSHR
	// at node 7 and five nodes read one block, four of them pending at
	// its home; all of it completes.
	for i := 0; i < 5; i++ {
		issue(7, merged, false)
		issue(8+i, pended, false)
	}
	drain()
	for n := 8; n < 11; n++ { // two of the three wait as pending requests
		issue(n, pended+16, false)
	}
	stress(40)
	// Stop where the DRAM queues have partly drained — reads in flight
	// beside freed slots — while a request is pending, and park a hit
	// completion at node 3, two readers and a write on one block at
	// node 7.
	eng.RunUntil(func() bool {
		_, dram, _, free := parkedEvents(sys)
		_, _, pending, _, pendFree := chainState(sys)
		return dram > 0 && free >= 2 && pending > 0 && pendFree >= 2
	}, 10_000)
	issue(3, resident, false)
	issue(7, retried, false)
	issue(7, retried, false)
	issue(7, retried, true)
	if l1, dram, l1Free, dramFree := parkedEvents(sys); l1 < 1 || dram < 1 || l1Free < 2 || dramFree < 2 {
		t.Fatalf("snapshot point has %d L1 parked accesses (longest free list beside one %d) and %d DRAM reads (%d) live, want 1, 2, 1, 2 or more",
			l1, l1Free, dram, dramFree)
	}
	if waiters, retries, pending, waitFree, pendFree := chainState(sys); waiters < 2 || retries < 1 || pending < 1 || waitFree < 2 || pendFree < 2 {
		t.Fatalf("snapshot point has an MSHR with %d waiters and %d retries, a transaction with %d pending requests, free lists of %d waiter and %d pending slots; want 2, 1, 1, 2, 2 or more",
			waiters, retries, pending, waitFree, pendFree)
	}
	clone := func(v any) any {
		if m, ok := v.(*Msg); ok {
			cp := *m
			return &cp
		}
		return v
	}
	engS, netS, sysS := eng.SnapshotState(), sys.Net.SnapshotState(clone), sys.State()
	rngS, slabsS := rng, slabLayout(sys)

	runA := append([]int64(nil), warm...)
	doneAt = &runA
	stress(30)
	a := finish()

	sys.Net.RestoreState(netS, clone)
	sys.Restore(sysS)
	eng.RestoreState(engS)
	if got := slabLayout(sys); got != slabsS {
		t.Fatalf("slabs were saved as\n%sand restored as\n%s", slabsS, got)
	}
	rng = rngS
	runB := append([]int64(nil), warm...)
	doneAt = &runB
	stress(30)
	b := finish()

	for i := range a.doneAt {
		if i >= len(b.doneAt) || a.doneAt[i] != b.doneAt[i] {
			t.Fatalf("access %d of %d completed at %d, on the replay (%d accesses) not so", i, len(a.doneAt), a.doneAt[i], len(b.doneAt))
		}
	}
	if !reflect.DeepEqual(a.missLat, b.missLat) || a.l1 != b.l1 || a.l2 != b.l2 {
		t.Errorf("miss latencies and hit rates %v %v %v, on the replay %v %v %v", a.missLat, a.l1, a.l2, b.missLat, b.l1, b.l2)
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			t.Errorf("%s = %v, on the replay %v", k, v, b.counts[k])
		}
	}
	if a.endCycle != b.endCycle {
		t.Errorf("drained at cycle %d, on the replay at %d", a.endCycle, b.endCycle)
	}
	if a.slabs != b.slabs {
		t.Errorf("slabs ended as\n%son the replay as\n%s", a.slabs, b.slabs)
	}
}
