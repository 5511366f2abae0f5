package fixed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromIntRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, -1, 42, -1000, 32767, -32768} {
		if got := FromInt(i).Int(); got != i {
			t.Errorf("FromInt(%d).Int() = %d", i, got)
		}
	}
}

func TestFromFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1.5, -2.25, 0.0001, 1000.125} {
		q := FromFloat(f)
		if math.Abs(q.Float()-f) > 1.0/float64(One) {
			t.Errorf("FromFloat(%v).Float() = %v", f, q.Float())
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(1e12) != Q(math.MaxInt32) {
		t.Error("large positive did not saturate")
	}
	if FromFloat(-1e12) != Q(math.MinInt32) {
		t.Error("large negative did not saturate")
	}
}

func TestArithmetic(t *testing.T) {
	a, b := FromFloat(2.5), FromFloat(1.25)
	if got := a.Add(b).Float(); got != 3.75 {
		t.Errorf("2.5+1.25 = %v", got)
	}
	if got := a.Sub(b).Float(); got != 1.25 {
		t.Errorf("2.5-1.25 = %v", got)
	}
	if got := a.Mul(b).Float(); got != 3.125 {
		t.Errorf("2.5*1.25 = %v", got)
	}
	if got := a.MAC(b, FromInt(1)).Float(); got != 4.125 {
		t.Errorf("1+2.5*1.25 = %v", got)
	}
	if got := a.Neg().Float(); got != -2.5 {
		t.Errorf("-2.5 = %v", got)
	}
}

func TestMulNegative(t *testing.T) {
	a, b := FromFloat(-3), FromFloat(2)
	if got := a.Mul(b).Float(); got != -6 {
		t.Errorf("-3*2 = %v", got)
	}
	if got := a.Mul(b.Neg()).Float(); got != 6 {
		t.Errorf("-3*-2 = %v", got)
	}
}

func TestWraparoundMatchesInt32(t *testing.T) {
	// The datapath wraps like 32-bit hardware.
	big := Q(math.MaxInt32)
	if got := big.Add(One); got != Q(math.MinInt32+int32(One)-1) {
		t.Errorf("wraparound add = %d", got)
	}
}

func TestIntTruncatesTowardZero(t *testing.T) {
	if got := FromFloat(-1.75).Int(); got != -1 {
		t.Errorf("Int(-1.75) = %d, want -1", got)
	}
	if got := FromFloat(1.75).Int(); got != 1 {
		t.Errorf("Int(1.75) = %d, want 1", got)
	}
}

func TestAddCommutesProperty(t *testing.T) {
	f := func(a, b int32) bool {
		return Q(a).Add(Q(b)) == Q(b).Add(Q(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulCommutesProperty(t *testing.T) {
	f := func(a, b int32) bool {
		return Q(a).Mul(Q(b)) == Q(b).Mul(Q(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	f := func(a, b int32) bool {
		return Q(a).Add(Q(b)).Sub(Q(b)) == Q(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACDefinitionProperty(t *testing.T) {
	f := func(a, b, acc int32) bool {
		return Q(a).MAC(Q(b), Q(acc)) == Q(acc).Add(Q(a).Mul(Q(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulPrecisionWithinHalfULP(t *testing.T) {
	// For moderate values, fixed multiply matches float multiply within
	// one quantum.
	f := func(a, b int16) bool {
		qa, qb := FromFloat(float64(a)/256), FromFloat(float64(b)/256)
		want := qa.Float() * qb.Float()
		return math.Abs(qa.Mul(qb).Float()-want) <= 1.0/float64(One)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApproxEqual(t *testing.T) {
	if !FromFloat(1.0).ApproxEqual(FromFloat(1.0000001), 1e-3) {
		t.Error("nearly equal values reported unequal")
	}
	if FromFloat(1.0).ApproxEqual(FromFloat(2.0), 1e-3) {
		t.Error("distinct values reported equal")
	}
}

// TestStringMatchesPercentG holds String to the bytes fmt's %g prints
// for the same value, over the edges of the format and seeded random
// bit patterns, and to one allocation, the string itself.
func TestStringMatchesPercentG(t *testing.T) {
	qs := []Q{0, One, -One, 1, -1, math.MaxInt32, math.MinInt32}
	rng := rand.New(rand.NewSource(1))
	for range 100_000 {
		qs = append(qs, Q(int32(rng.Uint32())))
	}
	for _, q := range qs {
		if got, want := q.String(), fmt.Sprintf("%g", q.Float()); got != want {
			t.Fatalf("Q(%d).String() = %q, %%g prints %q", int32(q), got, want)
		}
	}
	q := FromFloat(-1234.56789)
	if allocs := testing.AllocsPerRun(100, func() { _ = q.String() }); allocs != 1 {
		t.Errorf("String made %v allocations, want 1", allocs)
	}
}
