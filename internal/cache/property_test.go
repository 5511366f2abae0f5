package cache

import (
	"maps"
	"testing"
	"testing/quick"

	"snacknoc/internal/noc"
)

// TestCacheSetResidencyProperty: under any operation sequence, a set
// never holds more valid lines than its associativity, and a block just
// filled is always resident.
func TestCacheSetResidencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewCache(8*BlockBytes, 2) // 4 sets, 2 ways
		for _, op := range ops {
			block := uint64(op % 64)
			switch op % 3 {
			case 0:
				c.Lookup(block, op%5 == 0)
			case 1:
				c.Fill(block, op%2 == 0, op%7 == 0)
				if !c.Contains(block) {
					return false
				}
			case 2:
				c.Invalidate(block)
				if c.Contains(block) {
					return false
				}
			}
		}
		// Count residents per set.
		counts := make(map[int]int)
		for b := uint64(0); b < 64; b++ {
			if c.Contains(b) {
				counts[c.setOf(b)]++
			}
		}
		for _, n := range counts {
			if n > c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLRUPreservesRecentBlocksProperty: a block touched more recently
// than `ways` other distinct blocks of its set is never the eviction
// victim.
func TestLRUPreservesRecentBlocksProperty(t *testing.T) {
	c := NewCache(2*BlockBytes, 2) // 1 set, 2 ways
	c.Fill(10, false, false)
	c.Fill(20, false, false)
	for i := 0; i < 100; i++ {
		// Touch 10, then fill a fresh block: 20-lineage must be evicted,
		// 10 must survive every round.
		c.Lookup(10, false)
		c.Fill(uint64(100+i), false, false)
		if !c.Contains(10) {
			t.Fatalf("round %d: recently used block evicted", i)
		}
	}
}

// TestDowngradeIdempotent: downgrading twice equals downgrading once.
func TestDowngradeIdempotent(t *testing.T) {
	c := NewCache(4096, 2)
	c.Fill(3, true, false)
	c.Lookup(3, true)
	p1, d1 := c.Downgrade(3)
	p2, d2 := c.Downgrade(3)
	if !p1 || !d1 {
		t.Fatalf("first downgrade = (%v,%v)", p1, d1)
	}
	if !p2 || d2 {
		t.Fatalf("second downgrade = (%v,%v), want present+clean", p2, d2)
	}
}

// TestL2DirectoryMatchesMapProperty: the system-wide flat directory
// (slab + block table, entries never deleted) behaves exactly like the
// map-based directory it replaced under a random request stream — every
// lookup reaches the same entry, mutations through returned pointers
// stick, and the table maps every block, and only those, to its own
// slot. Halfway through, the home state is taken; after the rest of
// the stream it is restored and must match the map as it was then.
func TestL2DirectoryMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := &System{} // entry() touches only the flat directory state
		ref := make(map[uint64]dirEntry)
		var saved homeState
		var savedRef map[uint64]dirEntry
		for k, op := range ops {
			if k == len(ops)/2 {
				saved.copyFrom(&s.homeState)
				savedRef = maps.Clone(ref)
			}
			block := uint64(op % 251)
			e := s.entry(block)
			re := ref[block]
			// Mirror a directory mutation on both.
			node := noc.NodeID(op % 16)
			switch op % 4 {
			case 0:
				e.sharers.add(node)
				re.sharers.add(node)
			case 1:
				e.sharers.del(node)
				re.sharers.del(node)
			case 2:
				e.owner, e.hasOwner = node, true
				re.owner, re.hasOwner = node, true
			case 3:
				e.hasOwner = false
				re.hasOwner = false
			}
			ref[block] = re
		}
		matches := func(ref map[uint64]dirEntry) bool {
			if len(s.dir) != len(ref) || s.dirTab.Len() != len(ref) {
				return false
			}
			for block, re := range ref {
				i, ok := s.dirTab.Get(block)
				if !ok || s.dir[i] != re {
					return false
				}
			}
			return true
		}
		if !matches(ref) {
			return false
		}
		s.homeState.copyFrom(&saved)
		return savedRef == nil || matches(savedRef)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
