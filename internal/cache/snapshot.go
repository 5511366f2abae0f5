package cache

import (
	"slices"

	"snacknoc/internal/attrib"
	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
	"snacknoc/internal/stats"
)

// Checkpoint support. The hierarchy's mutable state is the tag stores,
// the L1 MSHR files and parked accesses, the L2 directory and
// transaction slabs, the memory nodes' reads in flight and the DRAM
// controllers. Pending events live in the engine snapshot as (callee,
// argument) pairs — a controller and a block or slab slot — and every
// held message is a value in a slab (messages are recycled by the
// handler that receives them), so a snapshot copies the slabs, their
// lookup tables and free lists slot for slot and a restore copies them
// back. A slot that owns a slice (an MSHR's waiters and retries, a home
// transaction's pending requests) is copied into that slot's own
// storage. Waiters are records copied by value; a waiter's done callback
// is the caller's.

// CacheState is a tag store's saved state.
type CacheState struct {
	Lines        []line
	Tick         int64
	Hits, Misses int64
}

// State captures the tag store.
func (c *Cache) State() CacheState {
	return CacheState{
		Lines:  append([]line(nil), c.lines...),
		Tick:   c.tick,
		Hits:   c.hits,
		Misses: c.misses,
	}
}

// Restore writes a saved state back (geometry must match).
func (c *Cache) Restore(s CacheState) {
	copy(c.lines, s.Lines)
	c.tick = s.Tick
	c.hits, c.misses = s.Hits, s.Misses
}

// copyFrom makes e a copy of o, its waiters and retries in e's own
// storage.
func (e *mshrEntry) copyFrom(o *mshrEntry) {
	w, r := e.waiters[:0], e.retry[:0]
	*e = *o
	e.waiters = append(w, o.waiters...)
	e.retry = append(r, o.retry...)
}

// copyFrom makes t a copy of o, its pending requests in t's own storage.
func (t *l2txn) copyFrom(o *l2txn) {
	p := t.pending[:0]
	*t = *o
	t.pending = append(p, o.pending...)
}

// copySlots makes dst a slot-for-slot copy of src, each slot copied into
// the storage dst's slot already owns, and returns it.
func copySlots[T any, P interface {
	*T
	copyFrom(*T)
}](dst, src []T) []T {
	dst = slices.Grow(dst[:0], len(src))[:len(src)]
	for i := range src {
		P(&dst[i]).copyFrom(&src[i])
	}
	return dst
}

// l1State is one L1 controller's saved state.
type l1State struct {
	cache    CacheState
	mshrHead [l1MSHRSets]int32
	mshrSlab []mshrEntry
	mshrFree int32
	mshrN    int
	parked   flat.Slots[parkedAccess]
	hits     int64
	misses   int64
	latSum   int64
	latCount int64

	attrib     attrib.Counts
	attribLast int64
}

func (l *L1) state() l1State {
	s := l1State{
		cache:      l.cache.State(),
		mshrHead:   l.mshrHead,
		mshrSlab:   copySlots(nil, l.mshrSlab),
		mshrFree:   l.mshrFree,
		mshrN:      l.mshrN,
		hits:       l.hits.Value(),
		misses:     l.misses.Value(),
		latSum:     l.latSum,
		latCount:   l.latCount,
		attrib:     l.attrib,
		attribLast: l.attribLast,
	}
	s.parked.CopyFrom(&l.parked, nil)
	return s
}

func (l *L1) restore(s *l1State) {
	l.cache.Restore(s.cache)
	l.mshrHead = s.mshrHead
	l.mshrSlab = copySlots(l.mshrSlab, s.mshrSlab)
	l.mshrFree, l.mshrN = s.mshrFree, s.mshrN
	l.parked.CopyFrom(&s.parked, nil)
	l.hits.Restore(stats.CounterState{N: s.hits})
	l.misses.Restore(stats.CounterState{N: s.misses})
	l.latSum, l.latCount = s.latSum, s.latCount
	l.attrib = s.attrib
	l.attribLast = s.attribLast
}

// l2State is one bank's saved state.
type l2State struct {
	cache     CacheState
	dirTab    flat.Table[uint64]
	dirSlots  []dirEntry
	dirBlocks []uint64
	txnTab    flat.Table[uint64]
	txns      flat.Slots[l2txn]

	hits, misses int64
	recalls      int64
	invs         int64
}

func (b *L2Bank) state() l2State {
	s := l2State{
		cache:     b.cache.State(),
		dirSlots:  slices.Clone(b.dirSlots),
		dirBlocks: slices.Clone(b.dirBlocks),
		hits:      b.hits.Value(),
		misses:    b.misses.Value(),
		recalls:   b.recalls.Value(),
		invs:      b.invs.Value(),
	}
	s.dirTab.CopyFrom(&b.dirTab)
	s.txnTab.CopyFrom(&b.txnTab)
	s.txns.CopyFrom(&b.txns, (*l2txn).copyFrom)
	return s
}

func (b *L2Bank) restore(s *l2State) {
	b.cache.Restore(s.cache)
	b.dirTab.CopyFrom(&s.dirTab)
	b.dirSlots = append(b.dirSlots[:0], s.dirSlots...)
	b.dirBlocks = append(b.dirBlocks[:0], s.dirBlocks...)
	b.txnTab.CopyFrom(&s.txnTab)
	b.txns.CopyFrom(&s.txns, (*l2txn).copyFrom)
	b.hits.Restore(stats.CounterState{N: s.hits})
	b.misses.Restore(stats.CounterState{N: s.misses})
	b.recalls.Restore(stats.CounterState{N: s.recalls})
	b.invs.Restore(stats.CounterState{N: s.invs})
}

// SystemState is the whole hierarchy's saved state. Memory nodes are
// saved in memNodes order, which is deterministic by construction.
type SystemState struct {
	l1s   []l1State
	l2s   []l2State
	mems  []mem.ControllerState
	reads []flat.Slots[Msg]
}

// State captures every controller in the hierarchy.
func (s *System) State() *SystemState {
	st := &SystemState{
		l1s:   make([]l1State, len(s.L1s)),
		l2s:   make([]l2State, len(s.L2s)),
		reads: make([]flat.Slots[Msg], len(s.memNodes)),
	}
	for i, l := range s.L1s {
		st.l1s[i] = l.state()
	}
	for i, b := range s.L2s {
		st.l2s[i] = b.state()
	}
	for i, mn := range s.memNodes {
		st.mems = append(st.mems, s.Mems[mn].ctrl.State())
		st.reads[i].CopyFrom(&s.Mems[mn].reads, nil)
	}
	return st
}

// Restore writes a saved state back onto the same system.
func (s *System) Restore(st *SystemState) {
	for i, l := range s.L1s {
		l.restore(&st.l1s[i])
	}
	for i, b := range s.L2s {
		b.restore(&st.l2s[i])
	}
	for i, mn := range s.memNodes {
		s.Mems[mn].ctrl.Restore(st.mems[i])
		s.Mems[mn].reads.CopyFrom(&st.reads[i], nil)
	}
}
