package mem

import "snacknoc/internal/stats"

// Checkpoint support. Pending access completions are engine events (the
// ScheduleCall in AccessCall), so the engine snapshot carries them; the
// controller itself only owns the bank/bus timing state and its
// statistics.

// ControllerState is a controller's saved state.
type ControllerState struct {
	Banks     []bank
	BusFreeAt int64
	Accesses  stats.CounterState
	RowHits   stats.CounterState
	LatSum    int64
}

// State captures the controller.
func (c *Controller) State() ControllerState {
	return ControllerState{
		Banks:     append([]bank(nil), c.banks...),
		BusFreeAt: c.busFreeAt,
		Accesses:  c.accesses.State(),
		RowHits:   c.rowHits.State(),
		LatSum:    c.latSum,
	}
}

// Restore writes a saved state back.
func (c *Controller) Restore(s ControllerState) {
	copy(c.banks, s.Banks)
	c.busFreeAt = s.BusFreeAt
	c.accesses.Restore(s.Accesses)
	c.rowHits.Restore(s.RowHits)
	c.latSum = s.LatSum
}
