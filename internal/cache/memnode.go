package cache

import (
	"fmt"

	"snacknoc/internal/flat"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
)

// MemNode bridges the NoC to a mem.Controller at a memory-controller
// node (the mesh corners in the Table IV platform).
type MemNode struct {
	sys   *System
	node  noc.NodeID
	ctrl  *mem.Controller
	reads flat.Slots[Msg] // the MemReads whose DRAM access is in flight
}

// Controller returns the underlying DRAM model (shared with a co-located
// CPM when the SnackNoC platform is attached).
func (m *MemNode) Controller() *mem.Controller { return m.ctrl }

// handle services memory protocol messages; both types are consumed
// here, so a read is parked by value before the message is recycled.
func (m *MemNode) handle(msg *Msg, cycle int64) {
	addr := msg.Block * BlockBytes
	switch msg.Type {
	case MemRead:
		m.ctrl.AccessCall(addr, false, m, int64(m.reads.Park(*msg)))
	case MemWrite:
		m.ctrl.Access(addr, true)
	default:
		panic(fmt.Sprintf("mem %d: unexpected message %s", m.node, msg.Type))
	}
	m.sys.pool.Put(msg)
}

// OnCall implements sim.Callee: the DRAM read parked in slot has its
// data, which goes back to the requesting bank.
func (m *MemNode) OnCall(slot, at int64) {
	r := m.reads.Take(int32(slot))
	resp := m.sys.pool.Get()
	resp.Type, resp.To, resp.Block, resp.Req = MemResp, RoleL2, r.Block, r.Req
	send(m.sys.Net, m.node, r.From, resp, at)
}
