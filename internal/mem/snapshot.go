package mem

// CopyFrom makes s a copy of o, the banks in s's own storage: a
// checkpoint takes a controller with saved.CopyFrom(&c.ControllerState)
// and restores it with c.CopyFrom(&saved).
func (s *ControllerState) CopyFrom(o *ControllerState) {
	banks := s.banks
	*s = *o
	s.banks = append(banks[:0], o.banks...)
}
