package cache

import (
	"snacknoc/internal/attrib"
	"snacknoc/internal/mem"
	"snacknoc/internal/stats"
)

// Checkpoint support. The hierarchy's mutable state is the tag stores,
// the L1 MSHR files and parked accesses, the L2 directory and
// transaction slabs, the memory nodes' reads in flight and the DRAM
// controllers. Pending events live in the engine snapshot as (callee,
// argument) pairs — a controller and a block or slab slot — so the slabs
// are copied slot for slot. Msg values are pool-recycled (PR 8), so every
// held message is deep-copied on snapshot AND again on restore. A plain
// copy suffices — each message is owned by exactly one cache location,
// and in-flight messages (cloned by the network snapshot through the
// platform's token cloner) never alias cache-held ones. Waiters are
// records copied by value; a waiter's done callback is the caller's.

// copyMsg deep-copies one held protocol message.
func copyMsg(m *Msg) *Msg {
	if m == nil {
		return nil
	}
	cp := *m
	return &cp
}

func copyMsgs(list []*Msg) []*Msg {
	if len(list) == 0 {
		return nil
	}
	out := make([]*Msg, len(list))
	for i, m := range list {
		out[i] = copyMsg(m)
	}
	return out
}

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

// mshrSnap is one saved MSHR.
type mshrSnap struct {
	block uint64
	write bool

	waiters []waiter
	retry   []retryReq
}

// l1State is one L1 controller's saved state.
type l1State struct {
	cache    CacheState
	mshrs    []mshrSnap
	parked   slab[parkedAccess]
	hits     int64
	misses   int64
	latSum   int64
	latCount int64

	attrib     attrib.CountersState
	attribLast int64
}

func (l *L1) state() l1State {
	s := l1State{
		cache:      l.cache.State(),
		hits:       l.hits.Value(),
		misses:     l.misses.Value(),
		latSum:     l.latSum,
		latCount:   l.latCount,
		attrib:     l.at.State(),
		attribLast: l.attribLast,
	}
	s.parked.copyFrom(&l.parked)
	for set := range l.mshrHead {
		for n := l.mshrHead[set]; n >= 0; n = l.mshrSlab[n].next {
			m := &l.mshrSlab[n]
			s.mshrs = append(s.mshrs, mshrSnap{
				block:   m.block,
				write:   m.write,
				waiters: append([]waiter(nil), m.waiters...),
				retry:   append([]retryReq(nil), m.retry...),
			})
		}
	}
	return s
}

func (l *L1) restore(s l1State) {
	l.cache.Restore(s.cache)
	l.hits.Restore(stats.CounterState{N: s.hits})
	l.misses.Restore(stats.CounterState{N: s.misses})
	l.latSum, l.latCount = s.latSum, s.latCount
	l.parked.copyFrom(&s.parked)
	for i := range l.mshrHead {
		l.mshrHead[i] = -1
	}
	l.mshrSlab = l.mshrSlab[:0]
	l.mshrFree = -1
	l.mshrN = 0
	for _, ms := range s.mshrs {
		e := l.mshrAlloc(ms.block, ms.write)
		e.waiters = append(e.waiters, ms.waiters...)
		e.retry = append(e.retry, ms.retry...)
	}
	// Overwrite last: the mshrAlloc rebuild above ticked the attribution
	// counters, and those increments belong to the discarded timeline.
	l.at.Restore(s.attrib)
	l.attribLast = s.attribLast
}

// l2txnSnap is one saved in-flight home transaction, request and
// pending queue deep-copied.
type l2txnSnap struct {
	block uint64
	txn   l2txn
}

// dirSnap is one saved directory entry.
type dirSnap struct {
	block uint64
	entry dirEntry
}

// l2State is one bank's saved state.
type l2State struct {
	cache        CacheState
	dir          []dirSnap
	txns         []l2txnSnap
	hits, misses int64
	recalls      int64
	invs         int64
}

func (b *L2Bank) state() l2State {
	s := l2State{
		cache:   b.cache.State(),
		hits:    b.hits.Value(),
		misses:  b.misses.Value(),
		recalls: b.recalls.Value(),
		invs:    b.invs.Value(),
	}
	for i := range b.dirSlots {
		s.dir = append(s.dir, dirSnap{block: b.dirBlocks[i], entry: b.dirSlots[i]})
	}
	for i, ok := range b.txnTab.live {
		if !ok {
			continue
		}
		t := &b.txnSlots[b.txnTab.vals[i]]
		cp := *t
		cp.req = copyMsg(t.req)
		cp.pending = copyMsgs(t.pending)
		s.txns = append(s.txns, l2txnSnap{block: b.txnTab.keys[i], txn: cp})
	}
	return s
}

func (b *L2Bank) restore(s l2State) {
	b.cache.Restore(s.cache)
	b.hits.Restore(stats.CounterState{N: s.hits})
	b.misses.Restore(stats.CounterState{N: s.misses})
	b.recalls.Restore(stats.CounterState{N: s.recalls})
	b.invs.Restore(stats.CounterState{N: s.invs})
	b.dirTab.reset()
	b.dirSlots = b.dirSlots[:0]
	b.dirBlocks = b.dirBlocks[:0]
	for _, d := range s.dir {
		*b.entry(d.block) = d.entry
	}
	b.txnTab.reset()
	b.txnSlots = b.txnSlots[:0]
	b.txnFree = b.txnFree[:0]
	for _, ts := range s.txns {
		t := ts.txn
		t.req = copyMsg(ts.txn.req)
		t.pending = copyMsgs(ts.txn.pending)
		b.txnSlots = append(b.txnSlots, t)
		b.txnTab.put(ts.block, int32(len(b.txnSlots)-1))
	}
}

// SystemState is the whole hierarchy's saved state. Memory nodes are
// saved in memNodes order, which is deterministic by construction.
type SystemState struct {
	l1s   []l1State
	l2s   []l2State
	mems  []mem.ControllerState
	reads []slab[Msg]
}

// State captures every controller in the hierarchy.
func (s *System) State() *SystemState {
	st := &SystemState{
		l1s:   make([]l1State, len(s.L1s)),
		l2s:   make([]l2State, len(s.L2s)),
		reads: make([]slab[Msg], len(s.memNodes)),
	}
	for i, l := range s.L1s {
		st.l1s[i] = l.state()
	}
	for i, b := range s.L2s {
		st.l2s[i] = b.state()
	}
	for i, mn := range s.memNodes {
		st.mems = append(st.mems, s.Mems[mn].ctrl.State())
		st.reads[i].copyFrom(&s.Mems[mn].reads)
	}
	return st
}

// Restore writes a saved state back onto the same system.
func (s *System) Restore(st *SystemState) {
	for i, l := range s.L1s {
		l.restore(st.l1s[i])
	}
	for i, b := range s.L2s {
		b.restore(st.l2s[i])
	}
	for i, mn := range s.memNodes {
		s.Mems[mn].ctrl.Restore(st.mems[i])
		s.Mems[mn].reads.copyFrom(&st.reads[i])
	}
}
