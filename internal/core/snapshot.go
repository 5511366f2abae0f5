package core

import (
	"snacknoc/internal/fixed"
	"snacknoc/internal/mem"
)

// Checkpoint support. Outside the network every token has one holder,
// which keeps it by value: an RCU in a slot of the platform's instruction
// slab or in its result ring, a CPM as a program-entry index or a spilled
// token. So the compute layer's state is the instruction slabs, each
// RCU's rcuState and each CPM's cpmState and memory channel, and one
// copyFrom per block both takes and restores it, slot for slot: the
// slabs, the cells and every free list come back exactly as they were.
// Tokens in flight ride the network snapshot.
//
// The program a CPM streams is immutable, so a snapshot shares it by
// pointer and its size does not depend on the program's length. The
// CPM's onDone callback is shared too: it closes over the submitter's
// state, which lives outside the platform, and a fork re-fires it when
// the fork finishes. Pending memory completions are typed engine events
// naming the CPM itself (see cpmFetchDone), carried by the engine
// snapshot.

// copyFrom makes s a slot-for-slot copy of o, reusing s's chunks.
func (s *instrSlab) copyFrom(o *instrSlab) {
	used := (int(o.n) + instrChunk - 1) / instrChunk
	for len(s.chunks) < used {
		s.chunks = append(s.chunks, make([]instrSlot, instrChunk))
	}
	for i := range used {
		copy(s.chunks[i], o.chunks[i])
	}
	s.n, s.free = o.n, o.free
}

// copyFrom makes s a copy of o, reusing s's storage.
func (s *rcuState) copyFrom(o *rcuState) {
	s.inbox = append(s.inbox[:0], o.inbox...)
	s.cells.CopyFrom(&o.cells)
	s.sbs.CopyFrom(&o.sbs)
	s.sbActive = append(s.sbActive[:0], o.sbActive...)
	s.sbTab.CopyFrom(&o.sbTab)
	s.waits.CopyFrom(&o.waits)
	s.waitTab.CopyFrom(&o.waitTab)
	s.outQ.CopyFrom(&o.outQ)
	s.rcuScalars = o.rcuScalars
}

// copyFrom makes s a copy of o, reusing s's storage. The result is
// cloned, not reused: the one a kernel finishes with is handed to onDone.
func (s *cpmState) copyFrom(o *cpmState) {
	s.instrBuf.CopyFrom(&o.instrBuf)
	s.result = nil
	if r := o.result; r != nil {
		s.result = &Result{Values: append([]fixed.Q(nil), r.Values...), StartCycle: r.StartCycle, DoneCycle: r.DoneCycle}
	}
	s.offload = append(s.offload[:0], o.offload...)
	s.offloadPending = append(s.offloadPending[:0], o.offloadPending...)
	s.offloadMem = append(s.offloadMem[:0], o.offloadMem...)
	s.cpmScalars = o.cpmScalars
}

// PlatformState is the whole SnackNoC's saved state: the instruction
// slab, every RCU and CPM (with its memory channel), and the cycle it was
// taken at.
// The network and engine are saved separately by internal/checkpoint.
// The RCU group's runnable set is not saved: a snapshot is settled, so
// which RCUs are parked, and since when, follows from the RCUs and the
// cycle.
type PlatformState struct {
	cycle  int64
	instrs instrSlab
	rcus   []rcuState
	cpms   []cpmState
	mems   []mem.ControllerState // per CPM
}

// SnapshotState captures the platform's compute layer.
func (p *Platform) SnapshotState() *PlatformState {
	// A restore re-derives who is parked from the snapshot cycle on, so
	// what parked RCUs are owed before it is paid now (a no-op right after
	// Run or RunUntil, which settle).
	for _, r := range p.RCUs {
		if r.Parked() {
			r.payParked()
		}
	}
	s := &PlatformState{
		cycle: p.group.turn,
		rcus:  make([]rcuState, len(p.RCUs)),
		cpms:  make([]cpmState, len(p.CPMs)),
		mems:  make([]mem.ControllerState, len(p.CPMs)),
	}
	s.instrs.copyFrom(&p.group.instrs)
	for i, r := range p.RCUs {
		s.rcus[i].copyFrom(&r.rcuState)
	}
	for i, c := range p.CPMs {
		s.cpms[i].copyFrom(&c.cpmState)
		s.mems[i].CopyFrom(&c.mem.ControllerState)
	}
	return s
}

// RestoreState writes a saved state back onto the same platform.
func (p *Platform) RestoreState(s *PlatformState) {
	p.group.instrs.copyFrom(&s.instrs)
	p.group.turn = s.cycle
	for i, r := range p.RCUs {
		r.rcuState.copyFrom(&s.rcus[i])
		if r.parkable() {
			p.group.runnable.Remove(i)
			r.parkedFrom = s.cycle
		} else {
			p.group.runnable.Add(i)
		}
	}
	for i, c := range p.CPMs {
		c.cpmState.copyFrom(&s.cpms[i])
		c.mem.CopyFrom(&s.mems[i])
	}
}
