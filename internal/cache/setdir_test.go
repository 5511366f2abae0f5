package cache

import (
	"math/rand/v2"
	"testing"
)

// denseCache is a reference tag store that holds sets*ways lines from the
// start, with the same LRU rule as Cache: a fill takes the first invalid
// way of its set, else the least recently used, the first on a tie.
type denseCache struct {
	sets, ways   int
	lines        []line
	tick         int64
	hits, misses int64
}

func newDense(sets, ways int) *denseCache {
	return &denseCache{sets: sets, ways: ways, lines: make([]line, sets*ways)}
}

func (d *denseCache) set(block uint64) []line {
	s := int(block % uint64(d.sets))
	return d.lines[s*d.ways : (s+1)*d.ways]
}

func (d *denseCache) find(block uint64) *line {
	set := d.set(block)
	for i := range set {
		if set[i].valid() && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

func (d *denseCache) lookup(block uint64, write bool) (hit, writable bool) {
	d.tick++
	l := d.find(block)
	if l == nil || write && !l.writable() {
		d.misses++
		return false, false
	}
	d.hits++
	l.touch(d.tick, flagIf(write, lineDirty))
	return true, l.writable()
}

func (d *denseCache) fill(block uint64, writable, dirty bool) (Victim, bool) {
	d.tick++
	flags := flagIf(writable, lineWritable) | flagIf(dirty, lineDirty)
	if l := d.find(block); l != nil {
		l.touch(d.tick, flags)
		return Victim{}, false
	}
	set := d.set(block)
	way := -1
	for i := range set {
		if !set[i].valid() {
			way = i
			break
		}
	}
	if way < 0 {
		way = 0
		for i := range set {
			if set[i].lastUse() < set[way].lastUse() {
				way = i
			}
		}
	}
	var v Victim
	evicted := set[way].valid()
	if evicted {
		v = Victim{Block: set[way].tag, Dirty: set[way].dirty()}
	}
	set[way] = line{tag: block, meta: d.tick<<lineFlagBits | lineValid | flags}
	return v, evicted
}

func (d *denseCache) strip(block uint64, flags int64) (present, dirty bool) {
	l := d.find(block)
	if l == nil {
		return false, false
	}
	dirty = l.dirty()
	l.meta &^= flags
	return true, dirty
}

// TestSetDirectoryMatchesDense drives the set-directory tag store and the
// dense reference with the same random Lookup, Fill, Invalidate,
// Downgrade and Contains sequence, with snapshots taken and restored
// along the way, on geometries whose every set is reachable. Every
// result, every victim and the hit and miss counts must agree, and the
// store must hold exactly its filled sets' ways.
func TestSetDirectoryMatchesDense(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{1, 4}, {4, 2}, {1024, 4}} {
		c := NewCache(g.sets*g.ways*BlockBytes, g.ways)
		d := newDense(g.sets, g.ways)
		var savedC tags
		var savedD denseCache
		saved := false
		rng := rand.New(rand.NewPCG(uint64(g.sets), 52))
		blocks := uint64(g.sets * (g.ways + 2))
		for op := range 60_000 {
			b, w, x := rng.Uint64N(blocks), rng.IntN(2) == 0, rng.IntN(2) == 0
			var got, want [2]any
			switch k := rng.IntN(100); {
			case k < 35:
				h, wr := c.Lookup(b, w)
				dh, dwr := d.lookup(b, w)
				got, want = [2]any{h, wr}, [2]any{dh, dwr}
			case k < 70:
				v, e := c.Fill(b, w, x)
				dv, de := d.fill(b, w, x)
				got, want = [2]any{v, e}, [2]any{dv, de}
			case k < 80:
				p, dy := c.Invalidate(b)
				dp, ddy := d.strip(b, lineValid)
				got, want = [2]any{p, dy}, [2]any{dp, ddy}
			case k < 90:
				p, dy := c.Downgrade(b)
				dp, ddy := d.strip(b, lineDirty|lineWritable)
				got, want = [2]any{p, dy}, [2]any{dp, ddy}
			case k < 98:
				got, want = [2]any{c.Contains(b)}, [2]any{d.find(b) != nil}
			case k < 99:
				savedC.copyFrom(&c.tags)
				savedD = *d
				savedD.lines = append([]line(nil), d.lines...)
				saved = true
			default:
				if saved {
					c.tags.copyFrom(&savedC)
					*d = savedD
					d.lines = append([]line(nil), savedD.lines...)
				}
			}
			if got != want {
				t.Fatalf("%d sets × %d ways, op %d on block %d: got %v, reference %v", g.sets, g.ways, op, b, got, want)
			}
		}
		if c.hits != d.hits || c.misses != d.misses {
			t.Fatalf("%d sets: hits/misses %d/%d, reference %d/%d", g.sets, c.hits, c.misses, d.hits, d.misses)
		}
		if filled := c.FilledSets(); c.HeldLines() != filled*g.ways || filled != g.sets {
			t.Fatalf("%d sets: %d lines held for %d filled sets × %d ways, want every set filled",
				g.sets, c.HeldLines(), filled, g.ways)
		}
	}
}

// TestFirstFillAfterRestoreSeesAnEmptySet: restoring a snapshot taken
// before a set's first fill leaves that set's old group beyond the
// restored lines; the set's next first fill must find its ways empty,
// not the stale lines.
func TestFirstFillAfterRestoreSeesAnEmptySet(t *testing.T) {
	c := NewCache(8*BlockBytes, 2) // 4 sets, 2 ways
	c.Fill(0, false, false)
	var saved tags
	saved.copyFrom(&c.tags)
	c.Fill(1, true, true) // set 1's first fill, after the snapshot
	c.Fill(5, true, true)
	c.tags.copyFrom(&saved)
	if c.Contains(1) || c.Contains(5) || c.HeldLines() != 2 {
		t.Fatalf("restore kept set 1: contains 1 %v, 5 %v, %d lines held", c.Contains(1), c.Contains(5), c.HeldLines())
	}
	for _, b := range []uint64{9, 13} {
		if v, evicted := c.Fill(b, false, false); evicted {
			t.Fatalf("fill of block %d evicted %+v, want a free way of the restored-empty set 1", b, v)
		}
	}
	if c.Contains(1) || c.Contains(5) || !c.Contains(0) {
		t.Fatalf("after refilling set 1: contains 1 %v, 5 %v, 0 %v; want only the refilled blocks and block 0",
			c.Contains(1), c.Contains(5), c.Contains(0))
	}
}
