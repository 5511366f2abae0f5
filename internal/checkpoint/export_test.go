package checkpoint

// Cycle returns the simulated time the state was taken at.
func (s *State) Cycle() int64 { return s.cycle }
