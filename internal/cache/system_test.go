package cache

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
)

func newSystem(t testing.TB) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	net, err := noc.New(eng, noc.BiNoCHS(4, 4))
	if err != nil {
		t.Fatalf("noc.New: %v", err)
	}
	sys, err := NewSystem(eng, net, DefaultSystemConfig())
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return eng, sys
}

// access issues one access from a node and waits for completion.
func access(t testing.TB, eng *sim.Engine, sys *System, node int, block uint64, write bool) int64 {
	t.Helper()
	done := int64(-1)
	sys.L1s[node].Access(block, write, func(cycle int64) { done = cycle })
	if _, ok := eng.RunUntil(func() bool { return done >= 0 }, 100000); !ok {
		t.Fatalf("access node=%d block=%d write=%v never completed", node, block, write)
	}
	return done
}

func TestReadMissFillsAndHits(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(70) // homed at node 70%16=6
	first := access(t, eng, sys, 2, block, false)
	if first <= 0 {
		t.Fatal("no completion cycle")
	}
	if !sys.L1s[2].Cache().Contains(block) {
		t.Fatal("block not filled into L1")
	}
	start := eng.Cycle()
	second := access(t, eng, sys, 2, block, false)
	missLat := first
	hitLat := second - start
	if hitLat >= missLat/2 {
		t.Fatalf("hit latency %d not much faster than miss %d", hitLat, missLat)
	}
	if sys.L1s[2].Hits() != 1 || sys.L1s[2].Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", sys.L1s[2].Hits(), sys.L1s[2].Misses())
	}
}

func TestSecondReaderServedByL2(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(70)
	access(t, eng, sys, 2, block, false)
	memBefore := l2Misses(sys)
	access(t, eng, sys, 5, block, false)
	if l2Misses(sys) != memBefore {
		t.Fatal("second reader went to memory despite L2 copy")
	}
	if !sys.L1s[5].Cache().Contains(block) {
		t.Fatal("block not filled into second L1")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(70)
	access(t, eng, sys, 2, block, false)
	access(t, eng, sys, 5, block, false)
	access(t, eng, sys, 9, block, true)
	// Let the invalidation acks fully drain.
	eng.Run(2000)
	if sys.L1s[2].Cache().Contains(block) {
		t.Fatal("sharer 2 still has the block after a remote write")
	}
	if sys.L1s[5].Cache().Contains(block) {
		t.Fatal("sharer 5 still has the block after a remote write")
	}
	if !sys.L1s[9].Cache().Contains(block) {
		t.Fatal("writer lost its block")
	}
	home := sys.L2s[sys.Home(block)]
	if home.invs.Value() != 2 {
		t.Fatalf("invalidations = %d, want 2", home.invs.Value())
	}
}

func TestReadRecallsModifiedOwner(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(71)
	access(t, eng, sys, 3, block, true) // node 3 owns M copy
	access(t, eng, sys, 8, block, false)
	home := sys.L2s[sys.Home(block)]
	if home.recalls.Value() != 1 {
		t.Fatalf("recalls = %d, want 1", home.recalls.Value())
	}
	// The previous owner keeps a shared copy; write permission is gone.
	if !sys.L1s[3].Cache().Contains(block) {
		t.Fatal("previous owner lost its shared copy")
	}
	if hit, _ := sys.L1s[3].Cache().Lookup(block, true); hit {
		t.Fatal("previous owner retained write permission")
	}
}

func TestWriteRecallsAndInvalidatesOwner(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(71)
	access(t, eng, sys, 3, block, true)
	access(t, eng, sys, 8, block, true)
	eng.Run(2000)
	if sys.L1s[3].Cache().Contains(block) {
		t.Fatal("previous owner still has the block after RecallInv")
	}
	if hit, w := sys.L1s[8].Cache().Lookup(block, true); !hit || !w {
		t.Fatal("new owner lacks write permission")
	}
}

func TestUpgradeFromSharedToModified(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(72)
	access(t, eng, sys, 4, block, false)
	// Write to the read-only line: must upgrade via GetX, then hit.
	access(t, eng, sys, 4, block, true)
	if sys.L1s[4].Misses() != 2 {
		t.Fatalf("misses = %d, want 2 (cold + upgrade)", sys.L1s[4].Misses())
	}
	start := eng.Cycle()
	end := access(t, eng, sys, 4, block, true)
	if end-start > 5 {
		t.Fatalf("write after upgrade took %d cycles, expected a local hit", end-start)
	}
}

func TestMSHRMergesConcurrentReads(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(73)
	done := 0
	sys.L1s[6].Access(block, false, func(int64) { done++ })
	sys.L1s[6].Access(block, false, func(int64) { done++ })
	sys.L1s[6].Access(block, false, func(int64) { done++ })
	if sys.L1s[6].Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1 merged MSHR", sys.L1s[6].Outstanding())
	}
	eng.RunUntil(func() bool { return done == 3 }, 100000)
	if done != 3 {
		t.Fatalf("completed %d of 3 merged accesses", done)
	}
}

func TestWriteAfterReadMissRetries(t *testing.T) {
	eng, sys := newSystem(t)
	block := uint64(74)
	reads, writes := 0, 0
	sys.L1s[6].Access(block, false, func(int64) { reads++ })
	sys.L1s[6].Access(block, true, func(int64) { writes++ })
	eng.RunUntil(func() bool { return reads == 1 && writes == 1 }, 100000)
	if reads != 1 || writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 1/1", reads, writes)
	}
	if hit, w := sys.L1s[6].Cache().Lookup(block, true); !hit || !w {
		t.Fatal("write permission missing after retried upgrade")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	eng, sys := newSystem(t)
	// Fill one L1 set with dirty blocks, then overflow it. With 128 sets
	// and 4 ways, blocks stride apart by 128 map to the same set.
	node := 1
	var blocks []uint64
	for i := 0; i < 5; i++ {
		blocks = append(blocks, uint64(11+128*i))
	}
	for _, b := range blocks {
		access(t, eng, sys, node, b, true)
	}
	eng.Run(5000)
	// The first block was evicted dirty; its home bank must now hold it.
	if sys.L1s[node].Cache().Contains(blocks[0]) {
		t.Fatal("set overflow did not evict the LRU block")
	}
	home := sys.L2s[sys.Home(blocks[0])]
	if !home.Cache().Contains(blocks[0]) {
		t.Fatal("writeback never reached the home L2 bank")
	}
}

func TestSystemQuiescesAfterRandomStress(t *testing.T) {
	eng, sys := newSystem(t)
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	issued, completed := 0, 0
	// Random reads and writes from all cores over a small shared block
	// range to force recalls, invalidations, and MSHR merges.
	for round := 0; round < 60; round++ {
		for n := 0; n < 16; n++ {
			if next(3) == 0 {
				continue
			}
			issued++
			sys.L1s[n].Access(uint64(next(96)), next(4) == 0, func(int64) { completed++ })
		}
		eng.Run(int64(5 + next(20)))
	}
	eng.RunUntil(func() bool { return completed == issued }, 500000)
	if completed != issued {
		t.Fatalf("completed %d of %d accesses; outstanding=%d",
			completed, issued, sys.OutstandingMisses())
	}
	if sys.OutstandingMisses() != 0 {
		t.Fatalf("MSHRs not drained: %d", sys.OutstandingMisses())
	}
	eng.Run(5000) // trailing writebacks and acks
	if err := sys.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestHomeAndMemMapping(t *testing.T) {
	_, sys := newSystem(t)
	if sys.Home(70) != noc.NodeID(6) {
		t.Fatalf("home(70) = %d, want 6", sys.Home(70))
	}
	corners := map[noc.NodeID]bool{0: true, 3: true, 12: true, 15: true}
	for b := uint64(0); b < 4096; b += 17 {
		if !corners[sys.MemFor(b)] {
			t.Fatalf("MemFor(%d) = %d, not a corner", b, sys.MemFor(b))
		}
	}
	seen := map[noc.NodeID]bool{}
	for b := uint64(0); b < 1<<14; b++ {
		seen[sys.MemFor(b)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("memory interleaving reached %d controllers, want 4", len(seen))
	}
}

func TestHitRatesAggregate(t *testing.T) {
	eng, sys := newSystem(t)
	access(t, eng, sys, 0, 200, false)
	access(t, eng, sys, 0, 200, false)
	if hr := sys.L1HitRate(); hr != 0.5 {
		t.Fatalf("L1 hit rate = %v, want 0.5", hr)
	}
	if sys.L2HitRate() != 0 {
		t.Fatalf("L2 hit rate = %v, want 0 (single cold miss)", sys.L2HitRate())
	}
	access(t, eng, sys, 1, 200, false) // L2 now has it
	if sys.L2HitRate() != 0.5 {
		t.Fatalf("L2 hit rate = %v, want 0.5", sys.L2HitRate())
	}
}

// l2Misses counts the home banks' misses, each a DRAM read.
func l2Misses(sys *System) int64 {
	var n int64
	for _, b := range sys.L2s {
		n += b.Misses()
	}
	return n
}

// TestL1MissAllocatesNoClosure pins the whole miss round trip, not just
// its issue side: with the pools, slabs and the NI's queues warm, a round
// of four AccessFast misses that also miss at the home bank (L1 miss →
// L2 miss → DRAM read → fill → waiter completion), one write parked
// behind a read miss of the same block (the retry event) and one
// L1.Access hit (the hit-completion event), run until everything has
// completed, allocates nothing. Every event on the way is a typed call
// on a controller; each used to be a heap closure, 89 % of the objects
// of a CMP pass.
func TestL1MissAllocatesNoClosure(t *testing.T) {
	eng, sys := newSystem(t)
	l1 := sys.L1s[2]
	resolved, want := 0, 0
	done := func(int64) { resolved++ }
	drained := func() bool { return resolved == want }
	// Blocks are revisited, so the directory and block tables stop
	// growing; each list is walked cyclically and is longer than the
	// ways of the one set it maps to (L1 stride 128, L2 bank stride
	// 1024), so every visit misses again.
	const base = uint64(1 << 20)
	hit := base + 9
	round, misses := 0, int64(0)
	step := func() {
		for i := 0; i < 4; i++ {
			if l1.AccessFast(base+1024*uint64((4*round+i)%8), false, doneFunc(done)) {
				t.Fatalf("round %d: streamed block hit, want an L1 miss", round)
			}
		}
		retry := base + 5 + 128*uint64(round%5)
		if l1.Access(retry, false, done) || l1.Access(retry, true, done) {
			t.Fatalf("round %d: block %d hit, want a read miss and a parked write", round, retry)
		}
		misses += 4 + 3 // the parked write misses again (an upgrade) on re-issue
		if !l1.Access(hit, false, done) {
			t.Fatalf("round %d: block %d missed, want a hit", round, hit)
		}
		want += 7
		round++
		if _, ok := eng.RunUntil(drained, 1_000_000); !ok {
			t.Fatalf("round %d: %d of %d accesses completed", round, resolved, want)
		}
	}
	access(t, eng, sys, 2, hit, false)
	misses++
	memBefore := l2Misses(sys)
	for i := 0; i < 10; i++ { // warm every pool, slab and table
		step()
	}
	if got := l2Misses(sys) - memBefore; got < 4*10 {
		t.Fatalf("%d home-bank misses in 10 rounds, want every streamed block to miss there", got)
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("a miss round trip allocated %v objects per round, want 0", allocs)
	}
	if got := l1.Misses(); got != misses {
		t.Fatalf("%d misses recorded, want %d", got, misses)
	}
	if err := sys.CheckDrained(); err != nil {
		t.Fatal(err)
	}
}

// TestMergedMissesAllocateNothing pins the chains: after one warm-up
// round, rounds in which three reads and a write to one block merge at
// node 2 (the write parks as a retry and re-issues as an upgrade), then
// three nodes read the block while its home recalls it from node 2 (two
// of the reads wait as pending requests), then node 4 writes it (so the
// next round misses again), allocate nothing. Node 2 first misses on
// zero to three other blocks, so the merged block's MSHR moves between
// slab cells from round to round; the warm-up round takes the most.
// testing.AllocsPerRun would run a warm-up round of its own and
// truncate the mean, so every allocation of eight rounds is counted,
// on each of three fresh systems, and the fewest is read (an allocation
// elsewhere in the process only adds).
func TestMergedMissesAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		fewest = min(fewest, mergedMissRounds(t))
	}
	if fewest != 0 {
		t.Errorf("eight rounds of merged misses allocated %d objects, want 0", fewest)
	}
}

// mergedMissRounds builds a system, runs TestMergedMissesAllocateNothing's
// warm-up round and returns what its next eight rounds allocate.
func mergedMissRounds(t *testing.T) uint64 {
	eng, sys := newSystem(t)
	const block = uint64(1<<20 + 9)
	resolved, want, round := 0, 0, 0
	done := func(int64) { resolved++ }
	var uses [3]int
	var waiters, retries, pending int
	drained := func() bool {
		w, r, p, _, _ := chainState(sys)
		waiters, retries, pending = max(waiters, w), max(retries, r), max(pending, p)
		return resolved == want
	}
	phase := func(issue func()) {
		issue()
		if _, ok := eng.RunUntil(drained, 100_000); !ok {
			t.Fatalf("%d of %d accesses completed", resolved, want)
		}
	}
	step := func() {
		phase(func() {
			// Fillers in node 2's other L1 sets, each a miss: each set
			// cycles through five blocks with four ways.
			for f := range 3 - round%4 {
				sys.L1s[2].Access(block+uint64(1+f)+128*uint64(uses[f]%5), false, done)
				uses[f]++
				want++
			}
			for i := 0; i < 3; i++ {
				sys.L1s[2].Access(block, false, done)
			}
			sys.L1s[2].Access(block, true, done)
			want += 4
		})
		phase(func() {
			for n := 4; n < 7; n++ {
				sys.L1s[n].AccessFast(block, false, doneFunc(done))
			}
			want += 3
		})
		phase(func() {
			sys.L1s[4].Access(block, true, done)
			want++
		})
		round++
	}
	// Every filler block has a directory entry before the warm-up round.
	for f := range uint64(3) {
		for k := range uint64(5) {
			access(t, eng, sys, 2, block+1+f+128*k, false)
		}
	}
	step()
	if waiters < 3 || retries < 1 || pending < 2 {
		t.Fatalf("the round held %d waiters and %d retries on one MSHR and %d pending requests on one transaction, want 3, 1, 2",
			waiters, retries, pending)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 8 {
		step()
	}
	runtime.ReadMemStats(&after)
	eng.Run(5000)
	if err := sys.CheckDrained(); err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestNewSystemBoundsTheMesh: a sharer set covers 128 nodes, so Fig
// 13's 16x8 mesh builds and a 16x9 one is an error that names the bound
// rather than an index panic at the first shared block.
func TestNewSystemBoundsTheMesh(t *testing.T) {
	for _, h := range []int{8, 9} {
		eng := sim.NewEngine()
		net, err := noc.New(eng, noc.BiNoCHS(16, h))
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewSystem(eng, net, DefaultSystemConfig())
		if h == 8 && err != nil {
			t.Fatalf("16x8: %v", err)
		}
		if h == 9 && (err == nil || !strings.Contains(err.Error(), "128")) {
			t.Fatalf("16x9: err = %v, want the 128-node bound", err)
		}
	}
}

// TestNewSystemAllocatesForFilledSetsOnly: a 4×4 build zeroes lines for
// every L1 set but only a seed window of each L2 bank's sets, so it
// allocates well under the 1.18 MB that every way of every set would
// take. Other goroutines can only add to the delta, so the least of
// three builds is read.
func TestNewSystemAllocatesForFilledSetsOnly(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 3 {
		eng := sim.NewEngine()
		net, err := noc.New(eng, noc.DAPPER(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewSystem(eng, net, DefaultSystemConfig()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	mb := float64(least) / 1e6
	t.Logf("a 4x4 NewSystem allocated %.3f MB", mb)
	if mb > 0.6 {
		t.Errorf("a 4x4 NewSystem allocated %.2f MB, want at most 0.6", mb)
	}
}
