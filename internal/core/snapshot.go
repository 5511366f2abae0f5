package core

import (
	"snacknoc/internal/fixed"
	"snacknoc/internal/mem"
	"snacknoc/internal/noc"
)

// Checkpoint support. Outside the network every token has one holder,
// which keeps it by value: an RCU in a slot of its engine's instruction
// slab or in its result ring, a CPM as a program-entry index or a spilled
// token. So a snapshot of the compute layer is a copy of those flat
// slices plus the scalar blocks, and a restore copies them back slot for
// slot: the slabs, the cells and every free list come back exactly as
// they were. Only positions nothing observes are not kept: a ring is
// saved as its live entries in order, and an empty lookup table as empty.
// Tokens in flight ride the network snapshot.
//
// The program a CPM streams is immutable, so a snapshot shares it by
// pointer and its size does not depend on the program's length. The
// CPM's onDone callback is shared too: it closes over the submitter's
// state, which lives outside the platform. Pending memory completions
// are typed engine events naming the CPM itself (see cpmFetchDone),
// carried by the engine snapshot.

func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{
		Values:     append([]fixed.Q(nil), r.Values...),
		StartCycle: r.StartCycle,
		DoneCycle:  r.DoneCycle,
	}
}

// rcuState is one RCU's saved state. Its compute port belongs to the
// network and rides the network snapshot.
type rcuState struct {
	rcuScalars
	rcuSlabs
	outQ []outToken
}

func (r *RCU) snapshot() rcuState {
	s := rcuState{rcuScalars: r.rcuScalars, outQ: r.outQ.AppendTo(nil)}
	s.rcuSlabs.copyFrom(&r.rcuSlabs)
	return s
}

func (r *RCU) restore(s *rcuState) {
	r.rcuScalars = s.rcuScalars
	r.rcuSlabs.copyFrom(&s.rcuSlabs)
	r.outQ.Restore(s.outQ)
}

// cpmState is one manager's saved state, including its private memory
// channel. prog is the shared immutable program and onDone the
// submitter's callback: a fork re-fires it when the fork finishes.
type cpmState struct {
	cpmScalars
	offloadBufs
	prog     *Program
	onDone   func(*Result)
	result   *Result
	instrBuf []int32

	alo      noc.ALODetectorState
	snackALO noc.SnackALOState
	mem      mem.ControllerState
}

func (c *CPM) snapshot() cpmState {
	s := cpmState{
		cpmScalars: c.cpmScalars,
		prog:       c.prog,
		onDone:     c.onDone,
		result:     cloneResult(c.result),
		instrBuf:   c.instrBuf.AppendTo(nil),
		alo:        c.alo.State(),
		snackALO:   c.snackALO.State(),
		mem:        c.mem.State(),
	}
	s.offloadBufs.copyFrom(&c.offloadBufs)
	return s
}

func (c *CPM) restore(s *cpmState) {
	c.cpmScalars = s.cpmScalars
	c.offloadBufs.copyFrom(&s.offloadBufs)
	c.prog = s.prog
	c.onDone = s.onDone
	c.result = cloneResult(s.result)
	c.instrBuf.Restore(s.instrBuf)
	c.alo.Restore(s.alo)
	c.snackALO.Restore(s.snackALO)
	c.mem.Restore(s.mem)
}

// PlatformState is the whole SnackNoC's saved state: every instruction
// slab, RCU and CPM (with its memory channel), and the cycle it was
// taken at.
// The network and engine are saved separately by internal/checkpoint.
// The RCU groups' runnable sets are not saved: a snapshot is settled, so
// which RCUs are parked, and since when, follows from the RCUs and the
// cycle.
type PlatformState struct {
	cycle  int64
	instrs []instrSlab // per RCU group
	rcus   []rcuState
	cpms   []cpmState
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
		cycle:  p.RCUs[0].g.turn,
		instrs: make([]instrSlab, len(p.groups)),
		rcus:   make([]rcuState, len(p.RCUs)),
		cpms:   make([]cpmState, len(p.CPMs)),
	}
	for i := range p.groups {
		s.instrs[i].copyFrom(&p.groups[i].instrs)
	}
	for i, r := range p.RCUs {
		s.rcus[i] = r.snapshot()
	}
	for i, c := range p.CPMs {
		s.cpms[i] = c.snapshot()
	}
	return s
}

// RestoreState writes a saved state back onto the same platform.
func (p *Platform) RestoreState(s *PlatformState) {
	for i := range p.groups {
		p.groups[i].instrs.copyFrom(&s.instrs[i])
		p.groups[i].turn = s.cycle
	}
	for i, r := range p.RCUs {
		r.restore(&s.rcus[i])
		if r.parkable() {
			r.g.runnable.Remove(i)
			r.parkedFrom = s.cycle
		} else {
			r.g.runnable.Add(i)
		}
	}
	for i, c := range p.CPMs {
		c.restore(&s.cpms[i])
	}
}
