// Package interval is the saturating integer interval domain both lint
// oracles compute in: the buffer oracle (internal/overflow) over buffer
// sizes, pointer offsets and string lengths, the integer oracle
// (internal/intflow) over the mathematical values of C integer
// expressions. Bounds saturate at the NegInf/PosInf sentinels, which sit
// well inside the int64 range, so no operation can wrap.
package interval

import (
	"fmt"
	"math"
)

// Interval bounds. Sentinels sit well inside the int64 range so saturating
// arithmetic cannot wrap.
const (
	NegInf = int64(math.MinInt64 / 4)
	PosInf = int64(math.MaxInt64 / 4)
)

// Interval is a closed integer interval [Lo, Hi] with infinities encoded
// as the NegInf/PosInf sentinels. Lo > Hi encodes the empty interval.
type Interval struct {
	Lo, Hi int64
}

// Top returns the unconstrained interval.
func Top() Interval { return Interval{NegInf, PosInf} }

// Const returns the singleton interval [n, n].
func Const(n int64) Interval { return Interval{clamp(n), clamp(n)} }

// Range returns [lo, hi] with sentinel clamping.
func Range(lo, hi int64) Interval { return Interval{clamp(lo), clamp(hi)} }

// IsTop reports whether the interval carries no information.
func (iv Interval) IsTop() bool { return iv.Lo <= NegInf && iv.Hi >= PosInf }

// IsEmpty reports an empty (contradictory) interval.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// Exact reports a finite singleton and returns its value.
func (iv Interval) Exact() (int64, bool) {
	if iv.Lo == iv.Hi && iv.Lo > NegInf && iv.Hi < PosInf {
		return iv.Lo, true
	}
	return 0, false
}

// String renders the interval for diagnostics.
func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "[]"
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo > NegInf {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi < PosInf {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return "[" + lo + "," + hi + "]"
}

func clamp(n int64) int64 {
	if n <= NegInf {
		return NegInf
	}
	if n >= PosInf {
		return PosInf
	}
	return n
}

// satAdd adds with saturation; +inf dominates a conflicting -inf, which is
// the conservative choice for the end-of-write computations it feeds.
func satAdd(a, b int64) int64 {
	if a >= PosInf || b >= PosInf {
		return PosInf
	}
	if a <= NegInf || b <= NegInf {
		return NegInf
	}
	return clamp(a + b)
}

// satNeg negates with saturation. Plain negation is wrong at both
// extremes: -math.MinInt64 wraps back to math.MinInt64, and a bound at or
// beyond a sentinel must flip to the opposite infinity, not keep its
// two's-complement image.
func satNeg(n int64) int64 {
	if n <= NegInf {
		return PosInf
	}
	if n >= PosInf {
		return NegInf
	}
	return -n
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	return Interval{satAdd(iv.Lo, o.Lo), satAdd(iv.Hi, o.Hi)}
}

// AddConst shifts the interval by n.
func (iv Interval) AddConst(n int64) Interval { return iv.Add(Const(n)) }

// Sub returns the interval difference iv - o.
func (iv Interval) Sub(o Interval) Interval {
	return Interval{satAdd(iv.Lo, satNeg(o.Hi)), satAdd(iv.Hi, satNeg(o.Lo))}
}

// Neg returns the negated interval.
func (iv Interval) Neg() Interval {
	return Interval{satNeg(iv.Hi), satNeg(iv.Lo)}
}

// MulConst scales the interval by k.
func (iv Interval) MulConst(k int64) Interval {
	if k == 0 {
		return Const(0)
	}
	a, b := satMul(iv.Lo, k), satMul(iv.Hi, k)
	if k < 0 {
		a, b = b, a
	}
	return Interval{a, b}
}

// satMul multiplies two possibly-sentinel bounds with saturation. Zero
// wins over an infinity: a bound of 0 times any bound is 0.
func satMul(a, k int64) int64 {
	if a == 0 || k == 0 {
		return 0
	}
	if a <= NegInf || a >= PosInf {
		if (a >= PosInf) == (k > 0) {
			return PosInf
		}
		return NegInf
	}
	if k <= NegInf || k >= PosInf {
		// An out-of-band multiplier saturates like an infinity. Deciding
		// here also keeps a == -1 away from the r/a overflow probe below,
		// where MinInt64 / -1 would trap.
		if (a > 0) == (k > 0) {
			return PosInf
		}
		return NegInf
	}
	r := a * k
	if r/a != k {
		if (a > 0) == (k > 0) {
			return PosInf
		}
		return NegInf
	}
	return clamp(r)
}

// Mul returns the interval product, precise only when one side is exact.
func (iv Interval) Mul(o Interval) Interval {
	if k, ok := o.Exact(); ok {
		return iv.MulConst(k)
	}
	if k, ok := iv.Exact(); ok {
		return o.MulConst(k)
	}
	return Top()
}

// MulRange is the full interval product: the hull of the four corner
// products, each saturated. It is more precise than Mul for two
// non-singleton operands, the n*size shape allocation overflows hinge on.
func (iv Interval) MulRange(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return Top()
	}
	lo, hi := PosInf, NegInf
	for _, c := range [4]int64{satMul(iv.Lo, o.Lo), satMul(iv.Lo, o.Hi), satMul(iv.Hi, o.Lo), satMul(iv.Hi, o.Hi)} {
		lo, hi = min(lo, c), max(hi, c)
	}
	return Interval{lo, hi}
}

// Div divides iv by o, precise for non-negative dividends and strictly
// positive divisors (the shape of size computations); anything else is
// Top.
func (iv Interval) Div(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() || iv.Lo < 0 || o.Lo <= 0 {
		return Top()
	}
	lo := int64(0)
	if o.Hi < PosInf {
		lo = iv.Lo / o.Hi
	}
	hi := PosInf
	if iv.Hi < PosInf {
		hi = iv.Hi / o.Lo
	}
	return Range(lo, hi)
}

// Shr shifts a non-negative iv right by an exact count in [0, 62];
// anything else is Top.
func (iv Interval) Shr(o Interval) Interval {
	k, ok := o.Exact()
	if !ok || k < 0 || k > 62 || iv.IsEmpty() || iv.Lo < 0 {
		return Top()
	}
	hi := PosInf
	if iv.Hi < PosInf {
		hi = iv.Hi >> uint(k)
	}
	return Range(iv.Lo>>uint(k), hi)
}

// Join returns the smallest interval covering both. Bounds are clamped so
// an interval built with raw int64 extremes normalizes to the sentinels
// instead of leaking values the saturating arithmetic cannot classify.
func (iv Interval) Join(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{clamp(min(iv.Lo, o.Lo)), clamp(max(iv.Hi, o.Hi))}
}

// Meet intersects the intervals; the result may be empty. Bounds are
// clamped like Join's.
func (iv Interval) Meet(o Interval) Interval {
	lo, hi := max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)
	if lo > hi {
		return Interval{lo, hi} // preserve emptiness even at raw extremes
	}
	return Interval{clamp(lo), clamp(hi)}
}

// Widen extrapolates: bounds that moved since prev jump to infinity, so
// ascending chains stabilize. The next state is joined in first.
func (iv Interval) Widen(next Interval) Interval {
	n := iv.Join(next)
	out := iv
	if n.Lo < iv.Lo {
		out.Lo = NegInf
	}
	if n.Hi > iv.Hi {
		out.Hi = PosInf
	}
	return out
}

// ClampMin raises the lower bound to at least n.
func (iv Interval) ClampMin(n int64) Interval {
	return Interval{max(iv.Lo, n), iv.Hi}
}

// Inc and Dec step a bound by one without walking off a sentinel: an
// infinity stays an infinity, so refined intervals never carry huge
// finite bounds that would read as genuine values later.
func Inc(n int64) int64 {
	if n >= PosInf || n <= NegInf {
		return n
	}
	return n + 1
}

// Dec is Inc's downward twin.
func Dec(n int64) int64 {
	if n >= PosInf || n <= NegInf {
		return n
	}
	return n - 1
}
