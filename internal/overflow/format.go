package overflow

import (
	"strconv"

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
		spec, verb, adv := parseSpec(s[i:])
		if verb == 0 {
			return interval.Range(0, interval.PosInf)
		}
		i += adv
		var a cast.Expr
		if next < len(args) {
			a = args[next]
		}
		next++
		total = total.Add(convLength(st, spec, verb, a))
	}
	return total.ClampMin(0)
}

// spec carries the parsed width/precision of one conversion (-1 = absent).
type spec struct {
	width, prec int
}

// parseSpec parses flags, width, precision and the verb of a conversion,
// starting just past the '%'. It returns the consumed byte count minus one
// (the caller's loop increments past the verb). verb 0 means unsupported
// ('*' widths, length modifiers with unknown verbs, malformed specs).
func parseSpec(s string) (spec, byte, int) {
	sp := spec{width: -1, prec: -1}
	i := 0
	for i < len(s) && (s[i] == '-' || s[i] == '+' || s[i] == ' ' || s[i] == '#' || s[i] == '0') {
		i++
	}
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i > start {
		if w, err := strconv.Atoi(s[start:i]); err == nil {
			sp.width = w
		}
	}
	if i < len(s) && s[i] == '.' {
		i++
		start = i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		pv := 0
		if i > start {
			pv, _ = strconv.Atoi(s[start:i])
		}
		sp.prec = pv
	}
	for i < len(s) && (s[i] == 'l' || s[i] == 'h' || s[i] == 'z') {
		i++
	}
	if i >= len(s) {
		return sp, 0, i
	}
	switch s[i] {
	case 's', 'c', 'd', 'i', 'u', 'x', 'X', 'o', 'p', 'f', 'g', 'e':
		return sp, s[i], i
	}
	return sp, 0, i
}

// convLength bounds the output of one conversion.
func convLength(st Env[varState], sp spec, verb byte, arg cast.Expr) interval.Interval {
	pad := func(iv interval.Interval) interval.Interval {
		if sp.width > 0 {
			return iv.ClampMin(int64(sp.width))
		}
		return iv
	}
	switch verb {
	case 'c':
		return pad(interval.Const(1))
	case 's':
		l := interval.Range(0, interval.PosInf)
		if arg != nil {
			l = strlenOf(st, arg)
		}
		if sp.prec >= 0 && int64(sp.prec) < l.Hi {
			l.Hi = int64(sp.prec)
			if l.Lo > l.Hi {
				l.Lo = l.Hi
			}
		}
		return pad(l)
	case 'd', 'i':
		return pad(digitLength(st, arg, 11, true)) // -2147483648
	case 'u':
		return pad(digitLength(st, arg, 10, false))
	case 'x', 'X':
		return pad(digitLength(st, arg, 8, false))
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
// when the interval is, otherwise up to maxDigits (incl. sign when signed).
func digitLength(st Env[varState], arg cast.Expr, maxDigits int64, signed bool) interval.Interval {
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
	lo := int64(1)
	if !signed && iv.Lo >= 0 {
		// cannot shrink below one digit anyway
		lo = 1
	}
	return interval.Range(lo, maxDigits)
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
func octalLength(st Env[varState], arg cast.Expr, sp spec) interval.Interval {
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
	if sp.prec >= 0 {
		iv = iv.ClampMin(int64(sp.prec))
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
