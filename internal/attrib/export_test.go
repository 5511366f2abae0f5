package attrib

import "strings"

// Fold flattens every attached count into metric-style keys
// ("<label>.attrib.<layer>.<reason>"), the shape Summarize consumes.
// Reading it is only safe once the engine is settled (between runs).
func (rec *Recorder) Fold() map[string]float64 {
	if rec == nil {
		return nil
	}
	m := make(map[string]float64, len(rec.comps)*4)
	rec.FoldInto(m)
	return m
}

// RenderString is Render into a string.
func (s *Summary) RenderString(title string) string {
	var b strings.Builder
	s.Render(&b, title)
	return b.String()
}
