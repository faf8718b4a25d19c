package overflow

import (
	"strings"

	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/interval"
)

// formatLength estimates the interval of bytes sprintf produces (excluding
// the terminating NUL) for a literal format string. args is the full call
// argument list; firstVarArg indexes the argument consumed by the first
// conversion. A non-literal format or an unrecognized conversion yields
// [0, +inf).
func formatLength(st Env[varState], fmtExpr cast.Expr, args []cast.Expr, firstVarArg int) interval.Interval {
	lit, ok := cast.Unparen(fmtExpr).(*cast.StringLit)
	if !ok {
		return interval.Range(0, interval.PosInf)
	}
	total := interval.Const(0)
	next := firstVarArg
	s := lit.Value
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			total = total.AddConst(1)
			continue
		}
		i++
		if i >= len(s) {
			return interval.Range(0, interval.PosInf)
		}
		if s[i] == '%' {
			total = total.AddConst(1)
			continue
		}
		spec, n := backend.ParseSpec(s[i:])
		if !bounded(spec) {
			return interval.Range(0, interval.PosInf)
		}
		i += n - 1
		var a cast.Expr
		if next < len(args) {
			a = args[next]
		}
		next++
		total = total.Add(convLength(st, spec, a))
	}
	return total.ClampMin(0)
}

// bounded is the oracle's acceptance rule for a conversion spec: length
// modifiers h, l and z only, and a conversion convLength bounds. A '*'
// width or precision, or any other conversion, leaves the output
// unbounded.
func bounded(sp backend.Spec) bool {
	if strings.ContainsAny(sp.Length, "jt") {
		return false
	}
	switch sp.Conv {
	case 's', 'c', 'd', 'i', 'u', 'x', 'X', 'o', 'p', 'f', 'g', 'e':
		return true
	}
	return false
}

// convLength bounds the output of one conversion.
func convLength(st Env[varState], sp backend.Spec, arg cast.Expr) interval.Interval {
	pad := func(iv interval.Interval) interval.Interval {
		if sp.Width > 0 {
			return iv.ClampMin(int64(sp.Width))
		}
		return iv
	}
	switch sp.Conv {
	case 'c':
		return pad(interval.Const(1))
	case 's':
		l := interval.Range(0, interval.PosInf)
		if arg != nil {
			l = strlenOf(st, arg)
		}
		if sp.Prec >= 0 && int64(sp.Prec) < l.Hi {
			l.Hi = int64(sp.Prec)
			if l.Lo > l.Hi {
				l.Lo = l.Hi
			}
		}
		return pad(l)
	case 'd', 'i':
		return pad(digitLength(st, arg, 11)) // -2147483648
	case 'u':
		return pad(digitLength(st, arg, 10))
	case 'x', 'X':
		return pad(digitLength(st, arg, 8))
	case 'o':
		return pad(octalLength(st, arg, sp))
	case 'p':
		return pad(interval.Range(1, 18)) // implementation-defined; glibc ≤ "0x" + 16
	case 'f', 'g', 'e':
		return interval.Range(1, interval.PosInf) // width/precision of floats not modeled
	}
	return interval.Range(0, interval.PosInf)
}

// digitLength bounds the decimal/hex digits of an integer argument: exact
// when the interval is, otherwise up to maxDigits (a sign included).
func digitLength(st Env[varState], arg cast.Expr, maxDigits int64) interval.Interval {
	if arg == nil {
		return interval.Range(1, maxDigits)
	}
	iv := evalInt(st, arg)
	if iv.Lo > interval.NegInf && iv.Hi < interval.PosInf {
		lo := min(decLen(iv.Lo), decLen(iv.Hi))
		hi := max(decLen(iv.Lo), decLen(iv.Hi))
		if iv.Lo <= 0 && iv.Hi >= 0 {
			lo = 1
		}
		return interval.Range(lo, hi)
	}
	return interval.Range(1, maxDigits)
}

func decLen(v int64) int64 {
	n := int64(1)
	if v < 0 {
		n++ // sign
		v = -v
	}
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// octalLength bounds %o output. A char-range argument [0,255] prints 1–3
// digits; precision gives the minimum.
func octalLength(st Env[varState], arg cast.Expr, sp backend.Spec) interval.Interval {
	iv := interval.Range(1, 11) // up to 0o37777777777 for 32-bit
	if arg != nil {
		a := evalInt(st, arg)
		if a.Lo >= 0 && a.Hi < interval.PosInf {
			iv = interval.Range(octLen(a.Lo), octLen(a.Hi))
		} else if a.Lo > interval.NegInf && a.Hi < interval.PosInf {
			// Negative values wrap to large unsigned: up to 11 digits.
			iv = interval.Range(1, 11)
		}
	}
	if sp.Prec >= 0 {
		iv = iv.ClampMin(int64(sp.Prec))
	}
	return iv
}

func octLen(v int64) int64 {
	if v < 0 {
		return 11
	}
	n := int64(1)
	for v >= 8 {
		v /= 8
		n++
	}
	return n
}
