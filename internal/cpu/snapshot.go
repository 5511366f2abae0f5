package cpu

import "math"

// Checkpoint support. A core's mutable state is coreScalars, its
// reference stream and that stream's generator included, so a checkpoint
// copies the block by assignment. The group's runnable and idle sets
// are derived: a snapshot records per core whether it was idle (a core
// neither finished, blocked nor idle is runnable) and Workload.Restore
// rebuilds them.

// CoreState is one core's saved state.
type CoreState struct {
	Idle bool // inside a synchronization stall, until idleUntil
	coreScalars
}

// Blocked reports whether the core was waiting on a miss.
func (s *CoreState) Blocked() bool { return s.blocked }

// State captures the core.
func (c *Core) State() CoreState {
	return CoreState{Idle: c.g.idle.Has(c.slot), coreScalars: c.coreScalars}
}

// WorkloadState is a workload's saved state: one entry per core, and the
// cycle of the group's next turn.
type WorkloadState struct {
	Cores []CoreState
	Turn  int64
}

// State captures every core.
func (w *Workload) State() *WorkloadState {
	s := &WorkloadState{Cores: make([]CoreState, len(w.Cores)), Turn: w.group.turn}
	for i, c := range w.Cores {
		s.Cores[i] = c.State()
	}
	return s
}

// Restore writes a saved state back onto the same workload and rebuilds
// the group's sets.
func (w *Workload) Restore(s *WorkloadState) {
	g := &w.group
	g.turn, g.cur, g.finished, g.idleWake = s.Turn, -1, 0, math.MaxInt64
	clear(g.runnable)
	clear(g.idle)
	for i, c := range w.Cores {
		cs := &s.Cores[i]
		c.coreScalars = cs.coreScalars
		switch {
		case cs.finished:
			g.finished++
		case cs.blocked:
		case cs.Idle:
			g.idle.Add(c.slot)
			g.idleWake = min(g.idleWake, cs.idleUntil)
		default:
			g.runnable.Add(c.slot)
		}
	}
}
