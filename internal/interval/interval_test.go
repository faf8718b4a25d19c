package interval

import (
	"math"
	"testing"
)

// inBand reports that both bounds stay inside the sentinel band, the
// invariant every saturating operation must preserve: a bound outside
// [NegInf, PosInf] would itself wrap in later arithmetic.
func inBand(iv Interval) bool {
	if iv.IsEmpty() {
		return true
	}
	return iv.Lo >= NegInf && iv.Lo <= PosInf && iv.Hi >= NegInf && iv.Hi <= PosInf
}

// rawExtreme is an interval built with raw int64 extremes, bypassing the
// Range/Const clamping — the adversarial input for the saturation tests.
var rawExtreme = Interval{math.MinInt64, math.MaxInt64}

func TestSatNegBoundaries(t *testing.T) {
	cases := []struct {
		in, want int64
	}{
		{math.MinInt64, PosInf}, // plain -MinInt64 wraps back to MinInt64
		{math.MaxInt64, NegInf},
		{NegInf, PosInf},
		{PosInf, NegInf},
		{NegInf + 1, -(NegInf + 1)},
		{0, 0},
		{42, -42},
	}
	for _, c := range cases {
		if got := satNeg(c.in); got != c.want {
			t.Errorf("satNeg(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNegAtExtremes(t *testing.T) {
	got := rawExtreme.Neg()
	if want := Top(); got != want {
		t.Errorf("Neg(%v) = %v, want %v", rawExtreme, got, want)
	}
	// The regression this guards: [-inf, 0].Neg() must be [0, +inf], not
	// collapse both bounds to -inf via wrapped negation.
	got = Interval{NegInf, 0}.Neg()
	if want := (Interval{0, PosInf}); got != want {
		t.Errorf("Neg([-inf,0]) = %v, want %v", got, want)
	}
}

func TestSubAtExtremes(t *testing.T) {
	// x - [-inf, lo]: subtracting an unboundedly negative value must push
	// the upper bound to +inf. Before satNeg, negating a raw MinInt64
	// lower bound wrapped and dragged the result to -inf instead.
	got := Const(10).Sub(rawExtreme)
	if want := Top(); got != want {
		t.Errorf("[10,10] - raw extremes = %v, want %v", got, want)
	}
	got = Const(0).Sub(Interval{NegInf, 5})
	if want := (Interval{-5, PosInf}); got != want {
		t.Errorf("[0,0] - [-inf,5] = %v, want %v", got, want)
	}
	got = Const(0).Sub(Interval{5, PosInf})
	if want := (Interval{NegInf, -5}); got != want {
		t.Errorf("[0,0] - [5,+inf] = %v, want %v", got, want)
	}
}

func TestJoinMeetClampExtremes(t *testing.T) {
	if got := rawExtreme.Join(Const(3)); !inBand(got) || !got.IsTop() {
		t.Errorf("Join with raw extremes = %v, want clamped top", got)
	}
	if got := rawExtreme.Meet(Top()); !inBand(got) || !got.IsTop() {
		t.Errorf("Meet with raw extremes = %v, want clamped top", got)
	}
	// Meet must still report emptiness when the operands are disjoint.
	if got := Const(1).Meet(Const(2)); !got.IsEmpty() {
		t.Errorf("Meet of disjoint singletons = %v, want empty", got)
	}
}

func TestArithmeticStaysInBand(t *testing.T) {
	ivs := []Interval{
		rawExtreme,
		Top(),
		{NegInf, NegInf},
		{PosInf, PosInf},
		{NegInf + 1, PosInf - 1},
		Const(0),
		Const(math.MaxInt64), // Const clamps; kept as a sanity input
		{-7, 7},
		{-1, 1}, // MulConst(-1, MinInt64) once trapped on MinInt64 / -1
	}
	for _, a := range ivs {
		for _, b := range ivs {
			for name, got := range map[string]Interval{
				"Add":      a.Add(b),
				"Sub":      a.Sub(b),
				"Mul":      a.Mul(b),
				"MulRange": a.MulRange(b),
				"Div":      a.Div(b),
				"Shr":      a.Shr(b),
				"Join":     a.Join(b),
				"Meet":     a.Meet(b),
			} {
				if !got.IsEmpty() && !inBand(got) {
					t.Errorf("%v %s %v = %v escapes the sentinel band", a, name, b, got)
				}
			}
		}
		if got := a.Neg(); !got.IsEmpty() && !inBand(got) {
			t.Errorf("Neg(%v) = %v escapes the sentinel band", a, got)
		}
		for _, k := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
			if got := a.MulConst(k); !got.IsEmpty() && !inBand(got) {
				t.Errorf("MulConst(%v, %d) = %v escapes the sentinel band", a, k, got)
			}
			if got := a.AddConst(k); !got.IsEmpty() && !inBand(got) {
				t.Errorf("AddConst(%v, %d) = %v escapes the sentinel band", a, k, got)
			}
		}
	}
}

// TestBoundaryArithmetic pins the integer oracle's operations at the
// sentinels and at the edges of their precise shapes.
func TestBoundaryArithmetic(t *testing.T) {
	cases := []struct {
		name      string
		got, want Interval
	}{
		// MulRange: zero beats an infinity; sentinel corners keep the sign
		// of the product; finite corners saturate instead of wrapping.
		{"MulRange +inf x 0", Interval{PosInf, PosInf}.MulRange(Const(0)), Const(0)},
		{"MulRange top x 0", Top().MulRange(Const(0)), Const(0)},
		{"MulRange [5,+inf] x -2", Range(5, PosInf).MulRange(Const(-2)), Interval{NegInf, -10}},
		{"MulRange top x [-3,-1]", Top().MulRange(Range(-3, -1)), Top()},
		{"MulRange [-inf,-1] x [2,3]", Range(NegInf, -1).MulRange(Range(2, 3)), Interval{NegInf, -2}},
		{"MulRange corners overflow int64", Range(1<<40, 1<<41).MulRange(Range(1<<30, 1<<31)), Interval{PosInf, PosInf}},
		{"MulRange corners past PosInf", Const(1 << 31).MulRange(Const(1 << 31)), Interval{PosInf, PosInf}},
		{"MulRange mixed-sign corners", Range(-(1 << 40), 1<<40).MulRange(Range(1<<30, 1<<31)), Top()},
		{"MulRange finite", Range(-2, 3).MulRange(Range(4, 5)), Range(-10, 15)},
		{"MulRange empty", Interval{1, 0}.MulRange(Const(2)), Top()},
		// Div: precise only for a non-negative dividend over a strictly
		// positive divisor.
		{"Div negative dividend", Range(-1, 10).Div(Const(2)), Top()},
		{"Div zero divisor", Range(0, 10).Div(Range(0, 5)), Top()},
		{"Div negative divisor", Range(0, 10).Div(Range(-2, 5)), Top()},
		{"Div finite", Range(7, 20).Div(Range(2, 3)), Range(2, 10)},
		{"Div unbounded divisor", Range(7, 20).Div(Range(2, PosInf)), Range(0, 10)},
		{"Div unbounded dividend", Range(7, PosInf).Div(Const(2)), Range(3, PosInf)},
		// Shr: an exact count in [0, 62] over a non-negative operand.
		{"Shr count 63", Const(1 << 40).Shr(Const(63)), Top()},
		{"Shr negative count", Const(1 << 40).Shr(Const(-1)), Top()},
		{"Shr inexact count", Const(1 << 40).Shr(Range(1, 2)), Top()},
		{"Shr negative operand", Range(-1, 5).Shr(Const(1)), Top()},
		{"Shr count 62", Range(0, 100).Shr(Const(62)), Const(0)},
		{"Shr unbounded operand", Range(8, PosInf).Shr(Const(2)), Range(2, PosInf)},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	steps := []struct {
		name      string
		got, want int64
	}{
		{"Inc(+inf)", Inc(PosInf), PosInf},
		{"Inc(-inf)", Inc(NegInf), NegInf},
		{"Dec(+inf)", Dec(PosInf), PosInf},
		{"Dec(-inf)", Dec(NegInf), NegInf},
		{"Inc(PosInf-1)", Inc(PosInf - 1), PosInf},
		{"Dec(NegInf+1)", Dec(NegInf + 1), NegInf},
		{"Inc(MaxInt64)", Inc(math.MaxInt64), math.MaxInt64},
		{"Dec(MinInt64)", Dec(math.MinInt64), math.MinInt64},
		{"Inc(5)", Inc(5), 6},
		{"Dec(5)", Dec(5), 4},
	}
	for _, c := range steps {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
