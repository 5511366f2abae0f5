package cpu

import (
	"math"

	"snacknoc/internal/traffic"
)

// Checkpoint support. A core's mutable state is a handful of scalars
// plus its reference stream; onMissFn is a method value bound to the
// core itself and never changes. The groups' runnable and idle sets are
// saved per core (a core neither finished, blocked nor idle is runnable)
// and Workload.Restore rebuilds them.

// CoreState is one core's saved state.
type CoreState struct {
	Stream      traffic.StreamState
	Retired     int64
	Outstanding int
	Blocked     bool
	Idle        bool // inside a synchronization stall, until IdleUntil
	IdleUntil   int64
	SinceStall  int
	Finished    bool
	FinishCycle int64
	StallAt     int
	StallCycles int64 // of the stalls that had ended
	StallFrom   int64 // first cycle of the stall still open, if any
}

// State captures the core.
func (c *Core) State() CoreState {
	return CoreState{
		Stream:      c.stream.State(),
		Retired:     c.retired,
		Outstanding: c.outstanding,
		Blocked:     c.blocked,
		Idle:        c.g.idle.Has(c.slot),
		IdleUntil:   c.idleUntil,
		SinceStall:  c.sinceStall,
		Finished:    c.finished,
		FinishCycle: c.finishCycle,
		StallAt:     c.stallAt,
		StallCycles: c.stallCycles,
		StallFrom:   c.stallFrom,
	}
}

// Restore writes a saved state back; Workload.Restore then puts the core
// into its group's sets.
func (c *Core) Restore(s CoreState) {
	c.stream.Restore(s.Stream)
	c.retired = s.Retired
	c.outstanding = s.Outstanding
	c.blocked = s.Blocked
	c.idleUntil = s.IdleUntil
	c.sinceStall = s.SinceStall
	c.finished = s.Finished
	c.finishCycle = s.FinishCycle
	c.stallAt = s.StallAt
	c.stallCycles = s.StallCycles
	c.stallFrom = s.StallFrom
}

// WorkloadState is a workload's saved state: one entry per core, and the
// cycle of the groups' next turn (between cycles every group is at the
// same one).
type WorkloadState struct {
	Cores []CoreState
	Turn  int64
}

// State captures every core.
func (w *Workload) State() *WorkloadState {
	s := &WorkloadState{Cores: make([]CoreState, len(w.Cores)), Turn: w.groups[0].turn}
	for i, c := range w.Cores {
		s.Cores[i] = c.State()
	}
	return s
}

// Restore writes a saved state back onto the same workload and rebuilds
// the groups' sets.
func (w *Workload) Restore(s *WorkloadState) {
	for _, g := range w.groups {
		g.turn, g.cur, g.finished, g.idleWake = s.Turn, -1, 0, math.MaxInt64
		clear(g.runnable)
		clear(g.idle)
	}
	for i, c := range w.Cores {
		cs := &s.Cores[i]
		c.Restore(*cs)
		switch g := c.g; {
		case cs.Finished:
			g.finished++
		case cs.Blocked:
		case cs.Idle:
			g.idle.Add(c.slot)
			g.idleWake = min(g.idleWake, cs.IdleUntil)
		default:
			g.runnable.Add(c.slot)
		}
	}
}
