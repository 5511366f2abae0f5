// Package fixed implements the 32-bit fixed-point arithmetic used by the
// SnackNoC Router Compute Units. The paper's RTL uses "32-bit fixed point
// functional units to keep area costs low as opposed to floating point
// units" (§III-F); we adopt the common Q16.16 format: 1 sign bit, 15
// integer bits, 16 fractional bits.
//
// Arithmetic wraps on overflow, exactly as a 32-bit datapath would.
package fixed

import (
	"math"
	"strconv"
)

// FracBits is the number of fractional bits in the Q16.16 format.
const FracBits = 16

// One is the fixed-point representation of 1.0.
const One Q = 1 << FracBits

// Q is a Q16.16 fixed-point number stored in 32 bits.
type Q int32

// FromFloat converts a float64 to the nearest representable fixed-point
// value, saturating at the representable range the way a converter front
// end would before handing data to the datapath.
func FromFloat(f float64) Q {
	v := math.Round(f * float64(One))
	if v > math.MaxInt32 {
		return Q(math.MaxInt32)
	}
	if v < math.MinInt32 {
		return Q(math.MinInt32)
	}
	return Q(int32(v))
}

// Float returns the value as a float64.
func (q Q) Float() float64 { return float64(q) / float64(One) }

// Add returns q + r with 32-bit wraparound.
func (q Q) Add(r Q) Q { return Q(int32(q) + int32(r)) }

// Sub returns q - r with 32-bit wraparound.
func (q Q) Sub(r Q) Q { return Q(int32(q) - int32(r)) }

// Mul returns q * r, computed in a 64-bit intermediate and truncated back
// to 32 bits, mirroring a hardware multiplier with a shifted product.
func (q Q) Mul(r Q) Q {
	p := int64(q) * int64(r) >> FracBits
	return Q(int32(p))
}

// MAC returns acc + q*r, the multiply-accumulate primitive of the RCU.
func (q Q) MAC(r, acc Q) Q { return acc.Add(q.Mul(r)) }

// String formats the value in decimal as %g does, the shortest form
// that reads back to the same float. The digits go to a buffer on the
// stack, so the returned string is the one allocation.
func (q Q) String() string {
	var buf [32]byte
	return string(strconv.AppendFloat(buf[:0], q.Float(), 'g', -1, 64))
}
