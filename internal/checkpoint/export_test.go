package checkpoint

// Drops reports how many released entries the per-shape bound dropped.
func (p *Pool) Drops() int64 { return p.drops.Load() }

// Cycle returns the simulated time the state was taken at.
func (s *State) Cycle() int64 { return s.cycle }
