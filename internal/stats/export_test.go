package stats

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Percent returns utilization as a percentage.
func (u *Utilization) Percent() float64 { return u.Fraction() * 100 }
