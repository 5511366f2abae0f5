package cache

import (
	"fmt"

	"snacknoc/internal/flat"
	"snacknoc/internal/noc"
	"snacknoc/internal/stats"
)

// dirEntry is the directory state for one block at its home bank, in
// homeState's slab. Once created an entry persists for the run, so slab
// pointers are stable except across a creating entry() call.
type dirEntry struct {
	sharers  nodeSet
	owner    noc.NodeID
	hasOwner bool
}

// l2txn is the in-flight transaction for one block; the home bank
// serializes transactions per block, which keeps the protocol race-free.
// pending chains the requests that arrived while the transaction was
// busy, in arrival order, through the system's pending slab. Both are
// copies: the messages themselves were recycled on arrival.
type l2txn struct {
	req        Msg
	pending    flat.Chain
	needAcks   int
	waitRecall bool
	waitMem    bool
	wentToMem  bool
}

// L2Bank is one slice of the shared distributed L2 and the home of the
// blocks homed at this node (their directory in the system's homeState).
type L2Bank struct {
	sys  *System
	node noc.NodeID

	l2State
}

// l2State is a bank's mutable state, its tag store included; a
// checkpoint takes and restores it with copyFrom.
type l2State struct {
	cache Cache

	hits, misses stats.Counter
	recalls      stats.Counter
	invs         stats.Counter
}

// Hits returns L2 data-array hits observed while serving transactions.
func (b *L2Bank) Hits() int64 { return b.hits.Value() }

// Misses returns L2 misses that went to memory.
func (b *L2Bank) Misses() int64 { return b.misses.Value() }

// homeState is every home bank's directory and transaction file, keyed
// by block (a block has one home, and nothing iterates them); a
// checkpoint takes and restores it with copyFrom.
type homeState struct {
	dirTab flat.Table[uint64] // block -> dir index
	dir    []dirEntry

	txnTab  flat.Table[uint64] // block -> txns slot
	txns    flat.Slots[l2txn]
	pending flat.Links[Msg] // every transaction's pending requests
}

// entry returns the directory slot for block, creating it on first use.
// The returned pointer is invalidated by the next creating entry call.
func (h *homeState) entry(block uint64) *dirEntry {
	if i, ok := h.dirTab.Get(block); ok {
		return &h.dir[i]
	}
	h.dir = append(h.dir, dirEntry{})
	i := int32(len(h.dir) - 1)
	h.dirTab.Put(block, i)
	return &h.dir[i]
}

// txn returns the active transaction for block, or nil.
func (h *homeState) txn(block uint64) *l2txn {
	if i, ok := h.txnTab.Get(block); ok {
		return h.txns.At(i)
	}
	return nil
}

// handle processes protocol messages addressed to this bank. GetS/GetX
// are kept by value (they become the transaction's request); every type
// is recycled on return.
func (b *L2Bank) handle(m *Msg, cycle int64) {
	switch m.Type {
	case GetS, GetX:
		if t := b.sys.txn(m.Block); t != nil {
			b.sys.pending.Push(&t.pending, *m)
		} else {
			b.start(m)
		}

	case PutData:
		e := b.sys.entry(m.Block)
		if t := b.sys.txn(m.Block); t != nil && t.waitRecall && e.hasOwner && e.owner == m.From {
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
		t := b.sys.txn(m.Block)
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
		e := b.sys.entry(m.Block)
		e.hasOwner = false
		if t.req.Type == GetS {
			e.sharers.add(m.From)
		}
		b.advance(m.Block, cycle)

	case InvAck:
		t := b.sys.txn(m.Block)
		if t == nil || t.needAcks == 0 {
			break
		}
		t.needAcks--
		b.advance(m.Block, cycle)

	case MemResp:
		t := b.sys.txn(m.Block)
		if t == nil || !t.waitMem {
			break
		}
		t.waitMem = false
		b.fill(m.Block, false, cycle)
		b.advance(m.Block, cycle)

	default:
		panic(fmt.Sprintf("l2 %d: unexpected message %s", b.node, m.Type))
	}
	b.sys.pool.Put(m)
}

// start begins a transaction after the bank's lookup latency, reusing a
// free transaction slot.
func (b *L2Bank) start(m *Msg) {
	b.sys.txnTab.Put(m.Block, b.sys.txns.Park(l2txn{req: *m}))
	b.sys.Eng.ScheduleCall(b.sys.Eng.Cycle()+b.sys.cfg.L2Lat, b, int64(m.Block))
}

// OnCall implements sim.Callee: the lookup of block's transaction is
// done. The event names the block, which advance finds the transaction
// by.
func (b *L2Bank) OnCall(block, cycle int64) { b.advance(uint64(block), cycle) }

// advance drives the transaction state machine for a block until it
// blocks on a remote event or completes.
func (b *L2Bank) advance(block uint64, cycle int64) {
	t := b.sys.txn(block)
	if t == nil || t.waitRecall || t.waitMem || t.needAcks > 0 {
		return
	}
	e := b.sys.entry(block)
	req := t.req

	// Step 1: strip conflicting copies.
	if e.hasOwner && e.owner != req.Req {
		kind := Recall
		if req.Type == GetX {
			kind = RecallInv
		}
		b.recalls.Inc()
		t.waitRecall = true
		rc := b.sys.pool.Get()
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
			inv := b.sys.pool.Get()
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
		rd := b.sys.pool.Get()
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
		resp := b.sys.pool.Get()
		resp.Type, resp.To, resp.Block, resp.Req = DataResp, RoleL1, block, req.Req
		send(b.sys.Net, b.node, req.Req, resp, cycle)
	} else {
		e.owner, e.hasOwner = req.Req, true
		e.sharers.clear()
		resp := b.sys.pool.Get()
		resp.Type, resp.To, resp.Block, resp.Req = DataRespX, RoleL1, block, req.Req
		send(b.sys.Net, b.node, req.Req, resp, cycle)
	}
	b.complete(block)
}

// complete retires the active transaction; the oldest pending request
// (if any) restarts the slot in place.
func (b *L2Bank) complete(block uint64) {
	h := &b.sys.homeState
	i, ok := h.txnTab.Get(block)
	if !ok {
		return
	}
	t := h.txns.At(i)
	if t.pending.Empty() {
		h.txnTab.Del(block)
		h.txns.Free(i)
		return
	}
	t.req = h.pending.Pop(&t.pending)
	t.needAcks, t.waitRecall, t.waitMem, t.wentToMem = 0, false, false, false
	b.sys.Eng.ScheduleCall(b.sys.Eng.Cycle()+b.sys.cfg.L2Lat, b, int64(block))
}

// fill installs a block in the data array, writing back a dirty victim.
func (b *L2Bank) fill(block uint64, dirty bool, cycle int64) {
	if v, evicted := b.cache.Fill(block, true, dirty); evicted && v.Dirty {
		wb := b.sys.pool.Get()
		wb.Type, wb.To, wb.Block, wb.Req = MemWrite, RoleMem, v.Block, noc.NodeID(b.node)
		send(b.sys.Net, b.node, b.sys.MemFor(v.Block), wb, cycle)
	}
}
