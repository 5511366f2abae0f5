package fixed

import "math"

// FromInt converts an integer to fixed point (wrapping like the hardware
// if it exceeds the 15-bit integer range).
func FromInt(i int) Q { return Q(int32(i) << FracBits) }

// Int returns the integer part, truncating toward zero.
func (q Q) Int() int { return int(int32(q) / int32(One)) }

// Neg returns -q.
func (q Q) Neg() Q { return Q(-int32(q)) }

// ApproxEqual reports whether q and r are within eps (a float tolerance)
// of each other. Fixed-point truncation makes exact float comparisons
// inappropriate in tests.
func (q Q) ApproxEqual(r Q, eps float64) bool {
	return math.Abs(q.Float()-r.Float()) <= eps
}
