package flat

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// TestTableMatchesMapProperty: under any interleaving of puts, deletes
// and lookups, a table answers exactly like a built-in map, at both key
// widths. A small key space forces probe-run collisions, so deletions
// take the backward-shift path through long runs; the table starts over
// a carved window of 16, so it also grows out of one.
func TestTableMatchesMapProperty(t *testing.T) {
	t.Run("uint32", func(t *testing.T) { checkTableMatchesMap[uint32](t) })
	t.Run("uint64", func(t *testing.T) { checkTableMatchesMap[uint64](t) })
}

func checkTableMatchesMap[K uint32 | uint64](t *testing.T) {
	f := func(ops []uint16) bool {
		tab := TableOver(make([]Entry[K], 16))
		ref := make(map[K]int32)
		for i, op := range ops {
			key := K(op % 97)
			switch op % 3 {
			case 0:
				tab.Put(key, int32(i))
				ref[key] = int32(i)
			case 1:
				tab.Del(key)
				delete(ref, key)
			case 2:
				v, ok := tab.Get(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
			if tab.Len() != len(ref) {
				return false
			}
		}
		var cp Table[K]
		cp.CopyFrom(&tab)
		for k, rv := range ref {
			if v, ok := tab.Get(k); !ok || v != rv {
				return false
			}
			if v, ok := cp.Get(k); !ok || v != rv {
				return false
			}
		}
		// An empty source clears the copy, which then takes the keys
		// afresh.
		cp.CopyFrom(&Table[K]{})
		for k := range ref {
			if _, ok := cp.Get(k); ok {
				return false
			}
			cp.Put(k, -1)
		}
		for k := range ref {
			if v, ok := cp.Get(k); !ok || v != -1 {
				return false
			}
		}
		return cp.Len() == len(ref)
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRingKeepsFIFOOrder drives a ring over a carved window of four
// against a slice: pushes and pops wrap its head around the window, and
// pushes onto the full window, its head mid-array, grow it. The
// neighbouring window is never written. Another ring, its head
// mid-array, made a copy with CopyFrom pops the same entries.
func TestRingKeepsFIFOOrder(t *testing.T) {
	slab := make([]int, 8)
	q := RingOver(Carve(&slab, 4))
	next := Carve(&slab, 4)
	var ref []int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if len(ref) == 0 || rng.Intn(5) < 3 {
			q.Push(i + 1)
			ref = append(ref, i+1)
		} else {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("step %d: popped %d, want %d", i, got, ref[0])
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", i, q.Len(), len(ref))
		}
		for k := range ref {
			if q.At(k) != ref[k] {
				t.Fatalf("step %d: At(%d) = %d, want %d", i, k, q.At(k), ref[k])
			}
		}
		if i == 7 && q.Cap() != 4 {
			t.Fatalf("ring grew past its window before it was full: cap %d", q.Cap())
		}
	}
	if q.Cap() <= 4 {
		t.Fatal("the ring never grew out of its carved window")
	}
	if !slices.Equal(next, make([]int, 4)) {
		t.Fatalf("the neighbouring window changed: %v", next)
	}
	out := q.AppendTo(nil)
	if !slices.Equal(out, ref) {
		t.Fatalf("AppendTo = %v, want %v", out, ref)
	}
	var r Ring[int]
	r.Push(-1)
	r.Pop() // the head is now mid-array
	r.CopyFrom(&q)
	if got := r.AppendTo(make([]int, 0, len(out))); !slices.Equal(got, ref) {
		t.Fatalf("restored ring holds %v, want %v", got, ref)
	}
	for _, want := range ref {
		if got := r.Pop(); got != want {
			t.Fatalf("restored ring popped %d, want %d", got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { out = q.AppendTo(out[:0]) }); allocs != 0 {
		t.Fatalf("copying a ring out into room allocated %.0f objects", allocs)
	}
}

// TestSlotsReuseLIFO: a freed slot is the next one handed out, most
// recently freed first; Take zeroes its slot and Free leaves it as it
// is; a copy's slots and free stack are independent of its source's.
func TestSlotsReuseLIFO(t *testing.T) {
	s := SlotsOver(make([][]int, 2), make([]int32, 2))
	a, b, c := s.Park([]int{1}), s.Park([]int{2}), s.Park([]int{3})
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("fresh slots %d %d %d, want 0 1 2", a, b, c)
	}
	s.Free(a)
	if r := s.Take(c); r[0] != 3 {
		t.Fatalf("Take returned %v, want [3]", r)
	}
	if s.Live() != 1 || s.Len() != 3 {
		t.Fatalf("Live %d of %d, want 1 of 3", s.Live(), s.Len())
	}
	if i := s.Alloc(); i != c || *s.At(i) != nil {
		t.Fatalf("Alloc gave slot %d holding %v, want taken slot %d zeroed", i, *s.At(i), c)
	}
	if i := s.Alloc(); i != a || (*s.At(i))[0] != 1 {
		t.Fatalf("Alloc gave slot %d holding %v, want freed slot %d as left", i, *s.At(i), a)
	}
	s.Free(b)
	var o Slots[[]int]
	o.CopyFrom(&s)
	if !slices.Equal(o.FreeSlots(), s.FreeSlots()) || o.Len() != s.Len() {
		t.Fatalf("copy has free %v of %d, source %v of %d", o.FreeSlots(), o.Len(), s.FreeSlots(), s.Len())
	}
	o.Alloc()
	o.Free(a)
	o.Park([]int{9})
	o.Park([]int{9})
	if (*s.At(a))[0] != 1 || s.Len() != 3 || !slices.Equal(s.FreeSlots(), []int32{b}) {
		t.Fatalf("changing a copy changed its source: slot %d holds %v, free %v of %d",
			a, *s.At(a), s.FreeSlots(), s.Len())
	}
}

// fewestMallocs returns the objects the measured half of a try allocates,
// the fewest over three tries: each try sets up afresh and returns the
// work to measure, and an allocation elsewhere in the process only adds.
func fewestMallocs(try func() (measure func())) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fewest := uint64(math.MaxUint64)
	for range 3 {
		measure := try()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measure()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestTableGrowsInOneAllocation: the Put that doubles a table allocates
// one object, its new entry array.
func TestTableGrowsInOneAllocation(t *testing.T) {
	got := fewestMallocs(func() func() {
		tab := TableOver(make([]Entry[uint64], 64))
		for k := range uint64(48) {
			tab.Put(k, int32(k)) // 48 keys fill 64 entries to the 0.75 load
		}
		return func() { tab.Put(48, 48) }
	})
	if got != 1 {
		t.Fatalf("a growing Put allocated %d objects, want 1", got)
	}
}

// TestSlotsFreeAllocatesNothing: the free stack grows with the records,
// so freeing every slot of a Slots that grew far past its window
// allocates nothing, and the slots come back most recently freed first.
func TestSlotsFreeAllocatesNothing(t *testing.T) {
	var s Slots[int]
	got := fewestMallocs(func() func() {
		s = SlotsOver(make([]int, 2), make([]int32, 2))
		for range 1000 {
			s.Alloc()
		}
		return func() {
			for i := range int32(1000) {
				s.Free(i)
			}
		}
	})
	if got != 0 {
		t.Fatalf("freeing 1000 slots allocated %d objects, want 0", got)
	}
	if i := s.Alloc(); i != 999 {
		t.Fatalf("Alloc after the frees gave slot %d, want 999", i)
	}
}

// TestPoolCountsAndCaps: Out returns to 0 once every object is back, a
// Put zeroes its object, a Put onto a full free list is dropped, and a
// nil pool allocates and drops.
func TestPoolCountsAndCaps(t *testing.T) {
	var p Pool[[2]int]
	xs := make([]*[2]int, 3*PoolChunk)
	for i := range xs {
		xs[i] = p.Get()
		xs[i][0] = i + 1
	}
	if p.Out() != len(xs) {
		t.Fatalf("Out %d after %d gets", p.Out(), len(xs))
	}
	for _, x := range xs {
		p.Put(x)
		if *x != [2]int{} {
			t.Fatalf("Put left %v in its object", *x)
		}
	}
	if p.Out() != 0 || p.Idle() != len(xs) {
		t.Fatalf("Out %d, Idle %d after every put; want 0, %d", p.Out(), p.Idle(), len(xs))
	}
	for p.Idle() < PoolCap {
		p.Put(new([2]int))
	}
	p.Put(new([2]int))
	if p.Idle() != PoolCap {
		t.Fatalf("a put past the cap kept the free list at %d, want %d", p.Idle(), PoolCap)
	}
	var np *Pool[int]
	a, b := np.Get(), np.Get()
	if a == nil || a == b {
		t.Fatal("a nil pool must allocate a fresh object per Get")
	}
	np.Put(a)
}

// TestPoolGrowsInProportion: a pool with nothing left allocates an
// eighth of what it has made, never fewer than PoolChunk, so M gets cost
// a logarithmic number of objects — at most ceil(log_{9/8}(M/32)) + 8 —
// and make at most an eighth, or one PoolChunk, more than M. A pool that
// has made 256 or fewer grows PoolChunk at a time.
func TestPoolGrowsInProportion(t *testing.T) {
	var p Pool[[4]int]
	for _, m := range []int{32, 100, 256, 257, 1000, 10_000, 100_000} {
		allocs := testing.AllocsPerRun(1, func() {
			p = Pool[[4]int]{}
			for range m {
				p.Get()
			}
		})
		if bound := math.Ceil(math.Log(float64(m)/PoolChunk)/math.Log(9.0/8)) + 8; allocs > bound {
			t.Errorf("%d gets allocated %.0f objects, want at most %.0f", m, allocs, bound)
		}
		if most := max(m*9/8, m+PoolChunk); p.made > most {
			t.Errorf("%d gets made %d objects, want at most %d", m, p.made, most)
		}
		if m <= 256 && p.made != (m+PoolChunk-1)/PoolChunk*PoolChunk {
			t.Errorf("%d gets made %d objects, want whole chunks of %d", m, p.made, PoolChunk)
		}
	}
}

// TestCarveCutsFullCapacityWindows: appending past a carved window
// reallocates instead of writing into the next one.
func TestCarveCutsFullCapacityWindows(t *testing.T) {
	slab := []int{1, 2, 3, 4, 5}
	w := Carve(&slab, 2)
	if len(w) != 2 || cap(w) != 2 || len(slab) != 3 {
		t.Fatalf("window len %d cap %d, slab left %d; want 2, 2, 3", len(w), cap(w), len(slab))
	}
	_ = append(w, 9)
	if slab[0] != 3 {
		t.Fatalf("appending past a window wrote %d into the next", slab[0])
	}
}
