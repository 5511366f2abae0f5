package core

import (
	"snacknoc/internal/attrib"
	"snacknoc/internal/flat"
)

// rcuGroup steps every RCU of a platform as a single component, so a
// cycle costs the RCUs that hold work in it, not every RCU: an RCU that
// ends a cycle with nothing executing, an empty inbox and an empty
// result ring — idle, or waiting for an operand only an arrival can
// supply — leaves the runnable set, and OnArrival puts it back when it
// takes an instruction or fills an operand. The router that calls
// OnArrival is registered on the same engine before the group, so the
// RCU is stepped in the cycle of the arrival, as it was when it was a
// component of its own; an engine sleeper could not be, because a
// component woken during the Evaluate phase joins the active list only
// at the next cycle.
//
// A parked RCU's cycles are all alike — one stall and one operand-wait
// cycle each while sub-blocks are live, one idle cycle otherwise — and
// are paid in one addition when it resumes or when the engine settles.
// RCUs are stepped in node order, the order they were registered in.
type rcuGroup struct {
	// rcus is the platform's RCU slab and runnable is indexed like it, by
	// node.
	rcus     []RCU
	runnable flat.IndexSet
	// instrs holds the instructions of every RCU.
	instrs instrSlab
	// turn is the next cycle the group's RCUs are stepped in: the current
	// cycle until the group's Evaluate has run, the one after from then
	// on. A parked RCU is owed the cycles before it, whoever asks and
	// whenever in the cycle — an arrival comes before the group's turn, the
	// attribution sampler's settle after it.
	turn int64
}

// Evaluate steps every runnable RCU, in node order.
func (g *rcuGroup) Evaluate(cycle int64) {
	for i := g.runnable.Next(0); i >= 0; i = g.runnable.Next(i + 1) {
		g.rcus[i].Evaluate(cycle)
	}
	g.turn = cycle + 1
}

// Advance commits every runnable RCU and parks those left without work.
func (g *rcuGroup) Advance(cycle int64) {
	for i := g.runnable.Next(0); i >= 0; i = g.runnable.Next(i + 1) {
		r := &g.rcus[i]
		r.Advance(cycle)
		if r.parkable() {
			g.runnable.Remove(i)
			r.parkedFrom = cycle + 1
		}
	}
}

// Settle implements sim.Settler: every parked RCU is paid up to the
// group's turn.
func (g *rcuGroup) Settle() {
	for i := range g.rcus {
		if !g.runnable.Has(i) {
			g.rcus[i].payParked()
		}
	}
}

// parkable reports whether only an arrival can change what the RCU does:
// nothing is executing, no instruction is in the enqueue stage and no
// result awaits injection. Queued instructions may remain — none of them
// is ready, or dispatch would have started one.
func (r *RCU) parkable() bool {
	return r.exec < 0 && len(r.inbox) == 0 && r.outQ.Len() == 0
}

// Parked reports whether the RCU is out of its group's runnable set.
func (r *RCU) Parked() bool { return r.g != nil && !r.g.runnable.Has(int(r.node)) }

// resume puts a parked RCU back into the runnable set, paid up; it is
// stepped from the group's turn on. The caller has not yet changed the
// RCU's sub-block queues.
func (r *RCU) resume() {
	if !r.Parked() {
		return
	}
	r.payParked()
	r.g.runnable.Add(int(r.node))
}

// payParked records the cycles a parked RCU has sat out, up to its
// group's turn, as Evaluate would have one at a time: dispatch found
// live sub-blocks and nothing ready, or no work at all.
func (r *RCU) payParked() {
	n := r.g.turn - r.parkedFrom
	if n <= 0 {
		return
	}
	r.parkedFrom = r.g.turn
	if len(r.sbActive) > 0 {
		r.stallCount.Add(n)
		r.attrib.Add(attrib.RCUOperandWait, n)
	} else {
		r.attrib.Add(attrib.RCUIdle, n)
	}
}
