// Package cache implements the CMP memory-hierarchy substrate that
// generates the NoC traffic the paper measures slack against: private L1
// caches, a shared distributed L2 with a directory-style protocol, and
// memory nodes at the mesh corners (Table IV: "2D 4x4 Mesh w. Corner
// MemCntrls").
//
// The protocol is a home-serialized MSI variant: read misses fetch from
// the block's home L2 bank, write misses invalidate sharers or recall the
// modified owner, and dirty evictions write back to the home. Data values
// are not carried (this is a timing substrate); what matters is that the
// message sequences — control requests, data responses, recalls,
// invalidations, writebacks — put the same kinds of load on the same
// links and crossbars as the gem5 Ruby protocol the paper used.
package cache

import (
	"fmt"
	"math"
	"slices"
)

// BlockBytes is the cache line size used throughout the platform.
const BlockBytes = 64

// line is one cache line's bookkeeping, packed into 16 bytes so a 4-way
// set is one 64 B host cache line: meta is lastUse<<lineFlagBits | flags.
type line struct {
	tag  uint64
	meta int64
}

const (
	lineValid int64 = 1 << iota
	lineDirty
	lineWritable
	lineFlagBits = 3
	lineFlagMask = 1<<lineFlagBits - 1
)

func (l *line) valid() bool    { return l.meta&lineValid != 0 }
func (l *line) dirty() bool    { return l.meta&lineDirty != 0 }
func (l *line) writable() bool { return l.meta&lineWritable != 0 }
func (l *line) lastUse() int64 { return l.meta >> lineFlagBits }

// touch stamps the line with the LRU clock and adds flags.
func (l *line) touch(tick, flags int64) {
	l.meta = tick<<lineFlagBits | l.meta&lineFlagMask | flags
}

// flagIf returns flag when on is true, else 0.
func flagIf(on bool, flag int64) int64 {
	if on {
		return flag
	}
	return 0
}

// Cache is a set-associative, write-back, LRU cache tag store.
type Cache struct {
	sets int
	ways int
	tags
}

// tags is a tag store's mutable state; a checkpoint copies it with
// copyFrom. A set holds no lines until its first fill: dir maps each
// filled set to its group of ways lines, so a run's bytes follow the sets
// it touches, not the sets the geometry has.
type tags struct {
	dir   []uint16 // per set: 0 before its first fill, else 1 + its group
	lines []line   // the filled sets' groups, in first-fill order
	tick  int64    // LRU clock

	hits, misses int64
}

// geometry returns the number of sets of a tag store of the given total
// size and associativity with 64 B blocks, or an error when the size
// does not divide evenly into sets or has more sets than the set
// directory can index.
func geometry(sizeBytes, ways int) (int, error) {
	blocks := sizeBytes / BlockBytes
	if blocks <= 0 || ways <= 0 || blocks%ways != 0 {
		return 0, fmt.Errorf("bad geometry size=%d ways=%d", sizeBytes, ways)
	}
	sets := blocks / ways
	if sets > math.MaxUint16 {
		return 0, fmt.Errorf("bad geometry size=%d ways=%d: %d sets exceed the set directory's %d",
			sizeBytes, ways, sets, math.MaxUint16)
	}
	return sets, nil
}

// newCache returns a tag store of the given geometry over dir, a window
// of sets zero entries, and lines, a window whose capacity is the groups
// it holds before it grows.
func newCache(sets, ways int, dir []uint16, lines []line) Cache {
	return Cache{sets: sets, ways: ways, tags: tags{dir: dir, lines: lines[:0]}}
}

func (c *Cache) setOf(block uint64) int { return int(block % uint64(c.sets)) }

func (c *Cache) find(block uint64) *line {
	g := int(c.dir[c.setOf(block)])
	if g == 0 {
		return nil
	}
	set := c.lines[(g-1)*c.ways : g*c.ways]
	for i := range set {
		if set[i].valid() && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

// group returns set's ways, giving the set a zeroed group on its first
// fill. The group is cleared because a restore can leave stale lines
// beyond len(lines).
func (c *Cache) group(set int) []line {
	g := int(c.dir[set])
	if g == 0 {
		n := len(c.lines)
		c.lines = slices.Grow(c.lines, c.ways)[:n+c.ways]
		clear(c.lines[n:])
		g = n/c.ways + 1
		c.dir[set] = uint16(g)
	}
	return c.lines[(g-1)*c.ways : g*c.ways]
}

// Lookup probes for a block. On a hit it refreshes LRU state and, when
// write is true and the line is writable, sets the dirty bit. It reports
// the hit and whether write permission was present.
func (c *Cache) Lookup(block uint64, write bool) (hit, writable bool) {
	c.tick++
	l := c.find(block)
	if l == nil {
		c.misses++
		return false, false
	}
	if write && !l.writable() {
		// Present but read-only: an upgrade is required; count as a miss
		// for the controller's purposes but report presence.
		c.misses++
		return false, false
	}
	c.hits++
	l.touch(c.tick, flagIf(write, lineDirty))
	return true, l.writable()
}

// Contains reports whether the block is present, without LRU side effects.
func (c *Cache) Contains(block uint64) bool { return c.find(block) != nil }

// Victim describes an evicted line.
type Victim struct {
	Block uint64
	Dirty bool
}

// Fill installs a block with the given write permission, returning the
// evicted victim if a valid line was displaced.
func (c *Cache) Fill(block uint64, writable, dirty bool) (Victim, bool) {
	c.tick++
	flags := flagIf(writable, lineWritable) | flagIf(dirty, lineDirty)
	if l := c.find(block); l != nil {
		l.touch(c.tick, flags)
		return Victim{}, false
	}
	set := c.group(c.setOf(block))
	var lru *line
	for i := range set {
		l := &set[i]
		if !l.valid() {
			lru = l
			break
		}
		if lru == nil || l.lastUse() < lru.lastUse() {
			lru = l
		}
	}
	var v Victim
	evicted := lru.valid()
	if evicted {
		v = Victim{Block: lru.tag, Dirty: lru.dirty()}
	}
	*lru = line{tag: block, meta: c.tick<<lineFlagBits | lineValid | flags}
	return v, evicted
}

// Invalidate removes a block, reporting whether it was present and dirty.
func (c *Cache) Invalidate(block uint64) (present, dirty bool) {
	l := c.find(block)
	if l == nil {
		return false, false
	}
	d := l.dirty()
	l.meta &^= lineValid
	return true, d
}

// Downgrade strips write permission from a block (recall to shared),
// reporting whether it was present and dirty before the downgrade.
func (c *Cache) Downgrade(block uint64) (present, dirty bool) {
	l := c.find(block)
	if l == nil {
		return false, false
	}
	d := l.dirty()
	l.meta &^= lineDirty | lineWritable
	return true, d
}
