package core

import "fmt"

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
