package cache

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/flat"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
)

// l1MSHRSets is the number of MSHR hash chains; a power of two so the
// set index is a mask. Outstanding misses per L1 are bounded by the
// core's access window, so chains stay short.
const l1MSHRSets = 64

// mshrEntry tracks one outstanding L1 miss. Entries live in a flat slab
// chained per set (block & mask) with a free list — the miss path and
// the fill path never touch a map. Its accesses are chains in the L1's
// waits slab: waiters complete at the fill, and retry holds conflicting
// accesses (e.g. a write arriving while a read miss is outstanding)
// re-issued once the fill completes.
type mshrEntry struct {
	block          uint64
	write          bool
	waiters, retry chain
	next           int32
}

// waiter is one access parked until a fill: a record, not a closure, so
// a miss allocates nothing. starts sums the cycles at which the access
// entered the miss path and misses counts them — more than one only for
// a parked write that missed again on re-issue — so completing it at
// cycle c adds misses*c - starts to the miss-latency sum: one sample per
// recorded miss, each from its own start.
type waiter struct {
	starts int64
	misses int64
	done   MissWaiter // may be nil
}

// MissWaiter hears when an access that missed completes: AccessFast's
// callback. The waiter record holds it as an interface, not a closure, so
// a pointer receiver costs no allocation per access or per requester.
type MissWaiter interface {
	MissDone(cycle int64)
}

// parkedAccess is an access waiting on an engine event: a hit's
// completion L1HitLat cycles on, or (retry) a parked write's re-issue
// the cycle after its block's fill. On an MSHR's chains it waits for the
// fill, and only a retry's write is read.
type parkedAccess struct {
	block        uint64
	write, retry bool
	waiter
}

// L1 is a private per-core cache controller. The core calls Access; the
// controller resolves hits locally after L1HitLat cycles and misses via
// the block's home L2 bank over the NoC.
type L1 struct {
	sys  *System
	node int

	l1State
}

// l1State is an L1 controller's mutable state, its tag store included; a
// checkpoint takes and restores it with copyFrom.
type l1State struct {
	cache Cache

	mshrHead [l1MSHRSets]int32 // per-set chain heads, -1 when empty
	mshrSlab []mshrEntry
	mshrFree int32 // slab free-list head, -1 when empty
	mshrN    int
	waits    links[parkedAccess] // every MSHR's waiters and retries

	parked flat.Slots[parkedAccess]

	hits     stats.Counter
	misses   stats.Counter
	latSum   int64
	latCount int64

	// attrib holds event-driven attribution (MSHR volume, occupancy
	// integral, high-water mark); attribLast is the cycle the occupancy
	// integral was last advanced to.
	attrib     attrib.Counts
	attribLast int64
}

// Outstanding returns the number of misses in flight.
func (l *L1) Outstanding() int { return l.mshrN }

// Hits returns the L1 hit count.
func (l *L1) Hits() int64 { return l.hits.Value() }

// Misses returns the L1 miss count (upgrades included).
func (l *L1) Misses() int64 { return l.misses.Value() }

// mshrFind returns the slab index of block's MSHR, or -1.
func (l *L1) mshrFind(block uint64) int32 {
	for n := l.mshrHead[block&(l1MSHRSets-1)]; n >= 0; n = l.mshrSlab[n].next {
		if l.mshrSlab[n].block == block {
			return n
		}
	}
	return -1
}

// mshrAlloc allocates an MSHR for block off the free list. The returned
// pointer is invalidated by the next mshrAlloc.
func (l *L1) mshrAlloc(block uint64, write bool) *mshrEntry {
	var n int32
	if l.mshrFree >= 0 {
		n = l.mshrFree
		l.mshrFree = l.mshrSlab[n].next
	} else {
		l.mshrSlab = append(l.mshrSlab, mshrEntry{})
		n = int32(len(l.mshrSlab) - 1)
	}
	e := &l.mshrSlab[n]
	set := block & (l1MSHRSets - 1)
	e.block, e.write, e.next = block, write, l.mshrHead[set]
	l.mshrHead[set] = n
	l.attribTick()
	l.attrib.Inc(attrib.CacheMSHRAlloc)
	l.attrib.Max(attrib.CacheMSHRPeak, int64(l.mshrN+1))
	l.mshrN++
	return e
}

// attribTick advances the occupancy-weighted miss integral to the
// current cycle at the outgoing outstanding-miss count. Called before
// every mshrN change so each interval is weighted by the count that
// held across it.
func (l *L1) attribTick() {
	now := l.sys.Eng.Cycle()
	l.attrib.Add(attrib.CacheMissCycles, (now-l.attribLast)*int64(l.mshrN))
	l.attribLast = now
}

// mshrRelease unlinks block's MSHR from its set chain and recycles the
// slab cell. Its chains must have been detached.
func (l *L1) mshrRelease(block uint64, n int32) {
	set := block & (l1MSHRSets - 1)
	if l.mshrHead[set] == n {
		l.mshrHead[set] = l.mshrSlab[n].next
	} else {
		for p := l.mshrHead[set]; p >= 0; p = l.mshrSlab[p].next {
			if l.mshrSlab[p].next == n {
				l.mshrSlab[p].next = l.mshrSlab[n].next
				break
			}
		}
	}
	l.mshrSlab[n] = mshrEntry{next: l.mshrFree}
	l.mshrFree = n
	l.attribTick()
	l.mshrN--
}

// access is Access for a waiter record; a re-issued retry arrives here
// with the misses it has already recorded.
func (l *L1) access(block uint64, write bool, w waiter) bool {
	if hit, _ := l.cache.Lookup(block, write); hit {
		l.hits.Inc()
		if w.done != nil || w.misses > 0 {
			l.park(l.sys.cfg.L1HitLat, parkedAccess{waiter: w})
		}
		return true
	}
	return l.missPath(block, write, w)
}

// park files p's event delay cycles on.
func (l *L1) park(delay int64, p parkedAccess) {
	l.sys.Eng.ScheduleCall(l.sys.Eng.Cycle()+delay, l, int64(l.parked.Park(p)))
}

// OnCall implements sim.Callee: the parked access in slot is due.
func (l *L1) OnCall(slot, cycle int64) {
	p := l.parked.Take(int32(slot))
	if p.retry {
		l.access(p.block, p.write, p.waiter)
	} else {
		l.complete(p.waiter, cycle)
	}
}

// AccessFast is the core-facing fast path: hits complete inline with no
// event scheduling (the pipeline hides L1 hit latency), and w hears only
// when a miss resolves. It reports whether the access hit.
func (l *L1) AccessFast(block uint64, write bool, w MissWaiter) bool {
	if hit, _ := l.cache.Lookup(block, write); hit {
		l.hits.Inc()
		return true
	}
	return l.missPath(block, write, waiter{done: w})
}

func (l *L1) missPath(block uint64, write bool, w waiter) bool {
	l.misses.Inc()
	start := l.sys.Eng.Cycle()
	w.starts += start
	w.misses++
	if n := l.mshrFind(block); n >= 0 {
		m := &l.mshrSlab[n]
		if write && !m.write {
			// A write cannot merge into a read miss: it needs exclusive
			// permission. Park it and re-issue after the fill.
			l.waits.push(&m.retry, parkedAccess{write: true, waiter: w})
		} else {
			l.waits.push(&m.waiters, parkedAccess{waiter: w})
		}
		return false
	}
	e := l.mshrAlloc(block, write)
	l.waits.push(&e.waiters, parkedAccess{waiter: w})
	t := GetS
	if write {
		t = GetX
	}
	req := l.sys.pool.Get()
	req.Type, req.To, req.Block, req.Req = t, RoleL2, block, l.nodeID()
	send(l.sys.Net, l.nodeID(), l.sys.Home(block), req, start)
	return false
}

// complete finishes a waiter at the given cycle: its miss latencies are
// recorded and its callback runs.
func (l *L1) complete(w waiter, cycle int64) {
	l.latSum += w.misses*cycle - w.starts
	l.latCount += w.misses
	if w.done != nil {
		w.done.MissDone(cycle)
	}
}

// handle processes protocol messages addressed to this L1. Every type
// delivered here is consumed, so the message is recycled on return.
func (l *L1) handle(m *Msg, cycle int64) {
	switch m.Type {
	case DataResp, DataRespX:
		n := l.mshrFind(m.Block)
		if n < 0 {
			panic(fmt.Sprintf("l1 %d: fill for block %d with no MSHR", l.node, m.Block))
		}
		// The chains are detached and the MSHR released before any
		// callback runs: a waiter's recursive Access may allocate MSHRs
		// and push waiters, never onto these chains' slots.
		msh := &l.mshrSlab[n]
		wasWrite, waiters, retry := msh.write, msh.waiters, msh.retry
		l.mshrRelease(m.Block, n)
		writable := m.Type == DataRespX
		if v, evicted := l.cache.Fill(m.Block, writable, wasWrite); evicted && v.Dirty {
			wb := l.sys.pool.Get()
			wb.Type, wb.To, wb.Block, wb.Req = PutData, RoleL2, v.Block, l.nodeID()
			send(l.sys.Net, l.nodeID(), l.sys.Home(v.Block), wb, cycle)
		}
		for !waiters.empty() {
			l.complete(l.waits.pop(&waiters).waiter, cycle)
		}
		for !retry.empty() {
			r := l.waits.pop(&retry)
			r.block, r.retry = m.Block, true
			l.park(1, r)
		}

	case Recall:
		_, dirty := l.cache.Downgrade(m.Block)
		ack := l.sys.pool.Get()
		ack.Type, ack.To, ack.Block, ack.Req, ack.WithData = RecallAck, RoleL2, m.Block, m.Req, dirty
		send(l.sys.Net, l.nodeID(), l.sys.Home(m.Block), ack, cycle)

	case RecallInv:
		_, dirty := l.cache.Invalidate(m.Block)
		ack := l.sys.pool.Get()
		ack.Type, ack.To, ack.Block, ack.Req, ack.WithData = RecallAck, RoleL2, m.Block, m.Req, dirty
		send(l.sys.Net, l.nodeID(), l.sys.Home(m.Block), ack, cycle)

	case Inv:
		l.cache.Invalidate(m.Block)
		ack := l.sys.pool.Get()
		ack.Type, ack.To, ack.Block, ack.Req = InvAck, RoleL2, m.Block, m.Req
		send(l.sys.Net, l.nodeID(), l.sys.Home(m.Block), ack, cycle)

	default:
		panic(fmt.Sprintf("l1 %d: unexpected message %s", l.node, m.Type))
	}
	l.sys.pool.Put(m)
}

func (l *L1) nodeID() noc.NodeID { return noc.NodeID(l.node) }
