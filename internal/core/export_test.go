package core

import (
	"fmt"

	"snacknoc/internal/noc"
)

// CheckGroups verifies, between cycles, that the group's runnable set
// agrees with its RCUs: an RCU is out of the set exactly when nothing is
// executing on it, its inbox is empty and no result is queued; and a
// parked RCU is owed cycles only up to the group's turn, which is the
// engine's next cycle. It returns how many RCUs are parked with live
// sub-blocks, parked idle, and runnable.
func (p *Platform) CheckGroups() (waiting, idle, runnable int, err error) {
	g := &p.group
	if g.turn != p.Eng.Cycle() {
		return 0, 0, 0, fmt.Errorf("%s: turn %d, engine at cycle %d", g.Name(), g.turn, p.Eng.Cycle())
	}
	for i := range g.rcus {
		r := &g.rcus[i]
		has := g.runnable.Has(i)
		switch {
		case r.g != g:
			return 0, 0, 0, fmt.Errorf("%s is not stepped by %s", r.Name(), g.Name())
		case has == r.parkable():
			return 0, 0, 0, fmt.Errorf("%s: runnable=%v but exec=%v inbox=%d results=%d",
				r.Name(), has, r.exec >= 0, len(r.inbox), r.outQ.Len())
		case has:
			runnable++
		case r.parkedFrom > g.turn:
			return 0, 0, 0, fmt.Errorf("%s: parked from cycle %d, after its group's turn %d", r.Name(), r.parkedFrom, g.turn)
		case len(r.sbActive) > 0:
			waiting++
		default:
			idle++
		}
	}
	return waiting, idle, runnable, nil
}

// CheckDrained is the token-conservation check: on a platform whose
// kernels have all completed, without a checkpoint restore, every pooled
// token is back in the platform's pool.
func (p *Platform) CheckDrained() error {
	if instr, data := p.CPM.pool.instr.Out(), p.CPM.pool.data.Out(); instr != 0 || data != 0 {
		return fmt.Errorf("core: %d instruction and %d data tokens outstanding after the kernel", instr, data)
	}
	return nil
}

// BusyReplies counts requests rejected while the platform was occupied.
func (c *CPM) BusyReplies() int64 { return c.busyReplies.Value() }

// NewRCU builds a lone compute unit for one router, outside a platform
// and without an injection port.
func NewRCU(node, cpmNode noc.NodeID) *RCU {
	return &RCU{
		node:     node,
		cpmNode:  cpmNode,
		pool:     new(TokenPool),
		instrs:   &instrSlab{free: -1},
		rcuState: rcuState{rcuScalars: rcuScalars{exec: -1}},
	}
}

// Emitted returns the number of data tokens produced.
func (r *RCU) Emitted() int64 { return r.emitted.Value() }

// Name names the group in CheckGroups' errors.
func (g *rcuGroup) Name() string { return "rcus0" }

// Executed returns the number of instructions completed.
func (r *RCU) Executed() int64 { return r.executed.Value() }
