package cache

import (
	"fmt"

	"snacknoc/internal/flat"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// dirEntry is the directory state for one block at its home bank.
// Entries live in a flat slab indexed by an open-addressed block table;
// once created they persist for the run (directory state is permanent),
// so slab pointers are stable except across a creating entry() call.
type dirEntry struct {
	sharers  nodeSet
	owner    noc.NodeID
	hasOwner bool
}

// l2txn is the in-flight transaction for one block; the home bank
// serializes transactions per block, which keeps the protocol race-free.
// pending holds requests that arrived while the transaction was busy,
// in arrival order (the per-block queue map folded into the slot). Both
// are copies: the messages themselves were recycled on arrival.
type l2txn struct {
	req        Msg
	pending    []Msg
	needAcks   int
	waitRecall bool
	waitMem    bool
	wentToMem  bool
}

// L2Bank is one slice of the shared distributed L2 plus the directory for
// the blocks homed at this node.
type L2Bank struct {
	sys  *System
	node noc.NodeID
	// eng is the shard engine of the bank's node; lookup-latency events
	// are filed here so sharded runs stay race-free.
	eng  *sim.Engine
	pool *flat.Pool[Msg]

	l2State
}

// l2State is a bank's mutable state, its tag store included; a
// checkpoint takes and restores it with copyFrom.
type l2State struct {
	cache Cache

	dirTab   flat.Table[uint64] // block -> dirSlots index
	dirSlots []dirEntry

	txnTab flat.Table[uint64] // block -> txns slot
	txns   flat.Slots[l2txn]

	hits, misses stats.Counter
	recalls      stats.Counter
	invs         stats.Counter
}

func newL2Bank(sys *System, node noc.NodeID) *L2Bank {
	eng := sys.Net.EngFor(node)
	return &L2Bank{
		sys:     sys,
		node:    node,
		eng:     eng,
		pool:    sys.poolFor(eng),
		l2State: l2State{cache: *NewCache(sys.cfg.L2BankBytes, sys.cfg.L2Ways)},
	}
}

// Cache exposes the bank's tag store.
func (b *L2Bank) Cache() *Cache { return &b.cache }

// Hits returns L2 data-array hits observed while serving transactions.
func (b *L2Bank) Hits() int64 { return b.hits.Value() }

// Misses returns L2 misses that went to memory.
func (b *L2Bank) Misses() int64 { return b.misses.Value() }

// entry returns the directory slot for block, creating it on first use.
// The returned pointer is invalidated by the next creating entry call.
func (b *L2Bank) entry(block uint64) *dirEntry {
	if i, ok := b.dirTab.Get(block); ok {
		return &b.dirSlots[i]
	}
	b.dirSlots = append(b.dirSlots, dirEntry{})
	i := int32(len(b.dirSlots) - 1)
	b.dirTab.Put(block, i)
	return &b.dirSlots[i]
}

// txn returns the active transaction for block, or nil.
func (b *L2Bank) txn(block uint64) *l2txn {
	if i, ok := b.txnTab.Get(block); ok {
		return b.txns.At(i)
	}
	return nil
}

// handle processes protocol messages addressed to this bank. GetS/GetX
// are kept by value (they become the transaction's request); every type
// is recycled on return.
func (b *L2Bank) handle(m *Msg, cycle int64) {
	switch m.Type {
	case GetS, GetX:
		if t := b.txn(m.Block); t != nil {
			t.pending = append(t.pending, *m)
		} else {
			b.start(m)
		}

	case PutData:
		e := b.entry(m.Block)
		if t := b.txn(m.Block); t != nil && t.waitRecall && e.hasOwner && e.owner == m.From {
			// The owner's voluntary writeback crossed our recall; accept
			// it as the recall's answer.
			b.fill(m.Block, true, cycle)
			e.hasOwner = false
			t.waitRecall = false
			b.advance(m.Block, cycle)
			break
		}
		if e.hasOwner && e.owner == m.From {
			e.hasOwner = false
		}
		b.fill(m.Block, true, cycle)

	case RecallAck:
		t := b.txn(m.Block)
		if t == nil || !t.waitRecall {
			// A stale ack from a recall answered by a crossing PutData.
			break
		}
		if m.WithData {
			b.fill(m.Block, true, cycle)
		}
		t.waitRecall = false
		// Ownership ends with the recall either way; a GetS recall leaves
		// the previous owner as a sharer, a GetX recall does not.
		e := b.entry(m.Block)
		e.hasOwner = false
		if t.req.Type == GetS {
			e.sharers.add(m.From)
		}
		b.advance(m.Block, cycle)

	case InvAck:
		t := b.txn(m.Block)
		if t == nil || t.needAcks == 0 {
			break
		}
		t.needAcks--
		b.advance(m.Block, cycle)

	case MemResp:
		t := b.txn(m.Block)
		if t == nil || !t.waitMem {
			break
		}
		t.waitMem = false
		b.fill(m.Block, false, cycle)
		b.advance(m.Block, cycle)

	default:
		panic(fmt.Sprintf("l2 %d: unexpected message %s", b.node, m.Type))
	}
	b.pool.Put(m)
}

// start begins a transaction after the bank's lookup latency, reusing a
// free transaction slot.
func (b *L2Bank) start(m *Msg) {
	i := b.txns.Alloc()
	t := b.txns.At(i)
	*t = l2txn{req: *m, pending: t.pending[:0]}
	b.txnTab.Put(m.Block, i)
	b.eng.ScheduleCall(b.eng.Cycle()+b.sys.cfg.L2Lat, b, int64(m.Block))
}

// OnCall implements sim.Callee: the lookup of block's transaction is
// done. The event names the block, which advance finds the transaction
// by.
func (b *L2Bank) OnCall(block, cycle int64) { b.advance(uint64(block), cycle) }

// advance drives the transaction state machine for a block until it
// blocks on a remote event or completes.
func (b *L2Bank) advance(block uint64, cycle int64) {
	t := b.txn(block)
	if t == nil || t.waitRecall || t.waitMem || t.needAcks > 0 {
		return
	}
	e := b.entry(block)
	req := t.req

	// Step 1: strip conflicting copies.
	if e.hasOwner && e.owner != req.Req {
		kind := Recall
		if req.Type == GetX {
			kind = RecallInv
		}
		b.recalls.Inc()
		t.waitRecall = true
		rc := b.pool.Get()
		rc.Type, rc.To, rc.Block, rc.Req = kind, RoleL1, block, req.Req
		send(b.sys.Net, b.node, e.owner, rc, cycle)
		return
	}
	if req.Type == GetX {
		pending := 0
		e.sharers.forEach(func(s noc.NodeID) {
			if s == req.Req {
				return
			}
			b.invs.Inc()
			pending++
			inv := b.pool.Get()
			inv.Type, inv.To, inv.Block, inv.Req = Inv, RoleL1, block, req.Req
			send(b.sys.Net, b.node, s, inv, cycle)
			e.sharers.del(s)
		})
		if pending > 0 {
			t.needAcks = pending
			return
		}
	}

	// Step 2: source the data.
	if !b.cache.Contains(block) {
		b.misses.Inc()
		t.waitMem = true
		t.wentToMem = true
		rd := b.pool.Get()
		rd.Type, rd.To, rd.Block, rd.Req = MemRead, RoleMem, block, req.Req
		send(b.sys.Net, b.node, b.sys.MemFor(block), rd, cycle)
		return
	}
	if !t.wentToMem {
		b.hits.Inc()
	}
	b.cache.Lookup(block, false) // refresh LRU

	// Step 3: respond and update the directory.
	if req.Type == GetS {
		e.sharers.add(req.Req)
		if e.hasOwner && e.owner == req.Req {
			e.hasOwner = false
		}
		resp := b.pool.Get()
		resp.Type, resp.To, resp.Block, resp.Req = DataResp, RoleL1, block, req.Req
		send(b.sys.Net, b.node, req.Req, resp, cycle)
	} else {
		e.owner, e.hasOwner = req.Req, true
		e.sharers.clear()
		resp := b.pool.Get()
		resp.Type, resp.To, resp.Block, resp.Req = DataRespX, RoleL1, block, req.Req
		send(b.sys.Net, b.node, req.Req, resp, cycle)
	}
	b.complete(block)
}

// complete retires the active transaction; the oldest pending request
// (if any) restarts the slot in place.
func (b *L2Bank) complete(block uint64) {
	i, ok := b.txnTab.Get(block)
	if !ok {
		return
	}
	t := b.txns.At(i)
	if len(t.pending) == 0 {
		b.txnTab.Del(block)
		b.txns.Free(i)
		return
	}
	t.req = t.pending[0]
	t.pending = t.pending[:copy(t.pending, t.pending[1:])]
	t.needAcks, t.waitRecall, t.waitMem, t.wentToMem = 0, false, false, false
	b.eng.ScheduleCall(b.eng.Cycle()+b.sys.cfg.L2Lat, b, int64(block))
}

// fill installs a block in the data array, writing back a dirty victim.
func (b *L2Bank) fill(block uint64, dirty bool, cycle int64) {
	if v, evicted := b.cache.Fill(block, true, dirty); evicted && v.Dirty {
		wb := b.pool.Get()
		wb.Type, wb.To, wb.Block, wb.Req = MemWrite, RoleMem, v.Block, noc.NodeID(b.node)
		send(b.sys.Net, b.node, b.sys.MemFor(v.Block), wb, cycle)
	}
}
