package mem

// Accesses returns the number of transactions issued.
func (c *Controller) Accesses() int64 { return c.accesses.Value() }

// RowHitRate returns the fraction of accesses that hit an open row.
func (c *Controller) RowHitRate() float64 {
	if c.accesses.Value() == 0 {
		return 0
	}
	return float64(c.rowHits.Value()) / float64(c.accesses.Value())
}
