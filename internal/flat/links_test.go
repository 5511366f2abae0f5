package flat

import (
	"math/rand"
	"slices"
	"testing"
)

// linksModel is a Links with its chains and the records parked outside
// any chain, beside a slice-of-queues reference: each chain's values in
// order, and the parked records' values by number.
type linksModel struct {
	l      Links[int]
	chains []Chain
	parked []int32
	ref    [][]int
	refOut map[int32]int
}

// check compares every chain with its reference queue, walking it from
// the head with Next and reading its tail, and the parked records with
// theirs, and requires every record to be live, parked or free.
func (m *linksModel) check(t *testing.T, step int) {
	t.Helper()
	live := 0
	for k, c := range m.chains {
		var got []int
		last := int32(-1)
		for i := c.Head(); i >= 0; i = m.l.Next(i) {
			got, last = append(got, *m.l.At(i)), i
		}
		if !slices.Equal(got, m.ref[k]) || c.Tail() != last || c.Empty() != (len(got) == 0) {
			t.Fatalf("step %d: chain %d holds %v (tail %d, empty %v), want %v ending at %d",
				step, k, got, c.Tail(), c.Empty(), m.ref[k], last)
		}
		live += len(got)
	}
	for _, i := range m.parked {
		if *m.l.At(i) != m.refOut[i] {
			t.Fatalf("step %d: parked record %d holds %d, want %d", step, i, *m.l.At(i), m.refOut[i])
		}
	}
	if live+len(m.parked)+m.l.Idle() != m.l.Len() {
		t.Fatalf("step %d: %d live, %d parked and %d free records, but the slab has %d",
			step, live, len(m.parked), m.l.Idle(), m.l.Len())
	}
}

// TestLinksMatchesQueuesProperty drives a Links over a carved window of
// four through random pushes, pops, parks outside any chain and
// insertions after a random record (or at the head), with copies and
// resets between, against a slice of queues. A popped record is the
// next one handed out, and a copy, changed afterwards, leaves its source
// as it was.
func TestLinksMatchesQueuesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const chains = 6
	m := &linksModel{
		l:      LinksOver(make([]Link[int], 4)),
		chains: make([]Chain, chains),
		ref:    make([][]int, chains),
		refOut: map[int32]int{},
	}
	spare := LinksOver(make([]Link[int], 2))
	popped := int32(-1) // the last record popped, until the next park
	park := func(v int) int32 {
		i := m.l.Park()
		if *m.l.At(i) != 0 {
			t.Fatalf("Park handed out record %d holding %d, want 0", i, *m.l.At(i))
		}
		*m.l.At(i) = v
		if popped >= 0 && i != popped {
			t.Fatalf("Park after popping record %d handed out %d", popped, i)
		}
		popped = -1
		return i
	}
	for step := range 20_000 {
		k := rng.Intn(chains)
		c := &m.chains[k]
		switch op := rng.Intn(100); {
		case op < 35:
			m.l.Push(c, step)
			if popped >= 0 && c.Tail() != popped {
				t.Fatalf("step %d: Push after popping record %d used %d", step, popped, c.Tail())
			}
			popped = -1
			m.ref[k] = append(m.ref[k], step)
		case op < 70:
			if c.Empty() {
				continue
			}
			h := c.Head()
			if v := m.l.Pop(c); v != m.ref[k][0] {
				t.Fatalf("step %d: Pop from chain %d gave %d, want %d", step, k, v, m.ref[k][0])
			}
			popped = h
			m.ref[k] = m.ref[k][1:]
		case op < 80:
			i := park(step)
			m.parked = append(m.parked, i)
			m.refOut[i] = step
		case op < 95:
			// Link a parked record, or a fresh one, after a random
			// position of the chain: -1 is its head.
			var i int32
			if n := len(m.parked); n > 0 {
				i = m.parked[n-1]
				m.parked = m.parked[:n-1]
			} else {
				i = park(step)
				m.refOut[i] = step
			}
			pos := rng.Intn(len(m.ref[k])+1) - 1
			prev := int32(-1)
			if pos >= 0 {
				prev = c.Head()
				for range pos {
					prev = m.l.Next(prev)
				}
			}
			m.l.InsertAfter(c, prev, i)
			m.ref[k] = slices.Insert(m.ref[k], pos+1, m.refOut[i])
			delete(m.refOut, i)
		case op < 99:
			// Continue on a copy, made into the slab used before the last
			// copy (longer or shorter than the source); the source must
			// not see what follows.
			spare.CopyFrom(&m.l)
			before := slices.Clone(m.l.recs)
			m.l, spare = spare, m.l
			m.check(t, step)
			m.l.Push(c, -1)
			popped = -1
			m.ref[k] = append(m.ref[k], -1)
			if !slices.Equal(spare.recs, before) {
				t.Fatalf("step %d: pushing onto a copy changed its source", step)
			}
		default:
			m.l.Reset()
			clear(m.chains)
			m.parked = m.parked[:0]
			clear(m.ref)
			clear(m.refOut)
			popped = -1
			if i := park(0); i != 0 {
				t.Fatalf("step %d: Park after Reset handed out record %d, want 0", step, i)
			}
			m.parked = append(m.parked, 0)
			m.refOut[0] = 0
		}
		m.check(t, step)
	}
}

// TestLinksGrowsByDoubling: a Links over a window doubles from the
// window's size, and one without a window allocates LinksChunk records
// first and doubles from there, one allocation each.
func TestLinksGrowsByDoubling(t *testing.T) {
	for _, first := range []int{0, 8} {
		l := LinksOver(make([]Link[int], first))
		want := first
		var c Chain
		for i := range 5000 {
			l.Push(&c, i)
			if cap(l.recs) != want {
				if want == 0 {
					want = LinksChunk
				} else {
					want *= 2
				}
				if cap(l.recs) != want {
					t.Fatalf("window %d: after %d pushes the slab holds %d records, want %d", first, i+1, cap(l.recs), want)
				}
			}
		}
	}
	got := fewestMallocs(func() func() {
		var l Links[int]
		var c Chain
		return func() {
			for i := range 1024 {
				l.Push(&c, i)
			}
		}
	})
	if got != 6 { // 32, 64, ..., 1024
		t.Fatalf("1024 pushes onto an empty Links allocated %d objects, want 6", got)
	}
}

// TestLinksSteadyStateAndResetAllocateNothing: once a Links has held its
// high-water mark, pushing and popping across chains and parking and
// inserting records allocate nothing, and neither do a Reset and a
// refill to the same mark.
func TestLinksSteadyStateAndResetAllocateNothing(t *testing.T) {
	var l Links[int]
	var chains [4]Chain
	fill := func() {
		for i := range 400 {
			l.Push(&chains[i%4], i)
		}
	}
	got := fewestMallocs(func() func() {
		l, chains = Links[int]{}, [4]Chain{}
		fill()
		return func() {
			for i := range 10_000 {
				c := &chains[i%4]
				l.Pop(c)
				if i%3 == 0 {
					n := l.Park()
					*l.At(n) = i
					l.InsertAfter(c, -1, n)
				} else {
					l.Push(c, i)
				}
			}
			l.Reset()
			chains = [4]Chain{}
			fill()
		}
	})
	if got != 0 {
		t.Fatalf("a warmed Links allocated %d objects, want 0", got)
	}
}
