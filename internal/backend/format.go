package backend

import (
	"math"
	"strconv"
	"strings"
)

// Spec is one printf conversion specification: the flags (any of
// "-0+ #", as written), the field width and precision (-1 when absent),
// the length modifier and the conversion character (0 when the format
// ends first). It is the one printf model: the checked interpreter
// renders a conversion with Append, and the buffer oracle bounds one with
// LenRange and StrLen.
type Spec struct {
	Flags       string
	Width, Prec int
	Length      string
	Conv        byte
}

// parseSpec parses the conversion specification at the start of s, the
// text just past a '%', and returns it with the number of bytes it
// spans, the conversion included. Width and precision are decimal digit
// runs: a width too large for an int is absent, a precision too large
// is the largest int, and a '.' with no digits is precision 0. Length
// collects any run of h, l, z, j and t.
func parseSpec(s string) (Spec, int) {
	sp := Spec{Width: -1, Prec: -1}
	i := 0
	run := func(set string) string {
		start := i
		for i < len(s) && strings.IndexByte(set, s[i]) >= 0 {
			i++
		}
		return s[start:i]
	}
	sp.Flags = run("-0+ #")
	if n, err := strconv.Atoi(run("0123456789")); err == nil {
		sp.Width = n
	}
	if i < len(s) && s[i] == '.' {
		i++
		sp.Prec, _ = strconv.Atoi(run("0123456789"))
	}
	sp.Length = run("hlzjt")
	if i < len(s) {
		sp.Conv = s[i]
		i++
	}
	return sp, i
}

// flag reports whether the spec carries flag c.
func (s Spec) flag(c byte) bool { return strings.IndexByte(s.Flags, c) >= 0 }

// WalkFormat splits a printf format into literal runs, passed to lit
// ("%%" is the run "%"), and conversion specs, passed to conv in order.
// It stops at a lone '%' that ends the format, at a spec the format ends
// inside, or when conv returns false.
func WalkFormat(format string, lit func(string), conv func(Spec) bool) {
	for format != "" {
		text, rest, found := strings.Cut(format, "%")
		if text != "" {
			lit(text)
		}
		if !found || rest == "" {
			return
		}
		if rest[0] == '%' {
			lit("%")
			format = rest[1:]
			continue
		}
		sp, n := parseSpec(rest)
		if sp.Conv == 0 || !conv(sp) {
			return
		}
		format = rest[n:]
	}
}

// ArgKind is what a conversion consumes: ArgInt for d i u x X o c (an
// int after the default promotions), ArgFloat for f g e, ArgStr for s
// (the bytes of a NUL-terminated string), ArgPtr for p (an address), and
// ArgNone for a conversion the model does not know, which consumes
// nothing and prints itself.
type ArgKind int

const (
	ArgNone ArgKind = iota
	ArgInt
	ArgFloat
	ArgStr
	ArgPtr
)

// Kind returns what the conversion consumes.
func (s Spec) Kind() ArgKind {
	for k, convs := range [...]string{ArgInt: "diuxXoc", ArgFloat: "fge", ArgStr: "s", ArgPtr: "p"} {
		if strings.IndexByte(convs, s.Conv) >= 0 {
			return ArgKind(k)
		}
	}
	return ArgNone
}

// Arg is one printf argument after the default argument promotions: Int
// for ArgInt and ArgPtr, Float for ArgFloat, Str for ArgStr.
type Arg struct {
	Int   int64
	Float float64
	Str   string
}

// lengthBits is the width of the type each length modifier makes an
// integer conversion read; a modifier C does not define is absent.
var lengthBits = map[string]uint{"": 32, "hh": 8, "h": 16, "l": 64, "ll": 64, "z": 64, "j": 64, "t": 64}

// bits returns the width of the type the conversion reads its argument
// as: unsigned char for c, an address for p, else the length modifier's.
func (s Spec) bits() uint {
	switch s.Conv {
	case 'c':
		return 8
	case 'p':
		return 64
	}
	return lengthBits[s.Length]
}

// field is one rendered conversion before its padding is spelled out:
// spaces, a sign or radix prefix, zeros, the body, spaces. Lengths come
// from it without rendering the padding, which a spec may make huge.
type field struct {
	left, zeros, right int
	prefix, body       string
}

func (f field) len() int64 {
	n := int64(f.left + len(f.prefix) + len(f.body) + f.right)
	return min(n, math.MaxInt64-int64(f.zeros)) + int64(f.zeros)
}

// Append renders the conversion of a as glibc's printf does and appends
// it to dst.
func (s Spec) Append(dst []byte, a Arg) []byte {
	f := s.layout(a)
	dst = append(append(dst, strings.Repeat(" ", f.left)...), f.prefix...)
	dst = append(append(dst, strings.Repeat("0", f.zeros)...), f.body...)
	return append(dst, strings.Repeat(" ", f.right)...)
}

// layout decides the conversion's parts by C99 7.19.6.1; the glibc table
// under testdata pins them.
func (s Spec) layout(a Arg) field {
	var f field
	zeroPad := false
	switch s.Kind() {
	case ArgNone:
		return field{body: "%" + string(s.Conv)}
	case ArgStr:
		f.body = a.Str[:min(uint(len(a.Str)), uint(s.Prec))] // no precision reads as the largest uint
	case ArgFloat:
		f.prefix, f.body = s.float(a.Float)
		zeroPad = s.flag('0') && !math.IsInf(a.Float, 0) && !math.IsNaN(a.Float)
	case ArgPtr:
		f.body = "(nil)"
		if a.Int != 0 {
			f.prefix, f.body = "0x", strconv.FormatUint(uint64(a.Int), 16)
		}
	default:
		if s.Conv == 'c' {
			f.body = string([]byte{byte(a.Int)})
			break
		}
		f.prefix, f.zeros, f.body = s.integer(a.Int)
		zeroPad = s.flag('0') && s.Prec < 0
	}
	if pad := s.Width - int(f.len()); pad > 0 {
		switch {
		case s.flag('-'):
			f.right = pad
		case zeroPad:
			f.zeros += pad
		default:
			f.left = pad
		}
	}
	return f
}

// sign is a signed conversion's prefix: '-' for a negative value, else
// the '+' or ' ' flag's.
func (s Spec) sign(neg bool) string {
	switch {
	case neg:
		return "-"
	case s.flag('+'):
		return "+"
	case s.flag(' '):
		return " "
	}
	return ""
}

// integer renders d i u x X o: the value read as the length modifier's
// type, at least Prec digits (none for zero at precision 0), a sign only
// on d and i, and '#' adding a leading 0 to o and 0x to a nonzero x.
func (s Spec) integer(v int64) (prefix string, zeros int, body string) {
	b := s.bits()
	u := uint64(v) & (math.MaxUint64 >> (64 - b))
	if s.Conv == 'd' || s.Conv == 'i' {
		v = v << (64 - b) >> (64 - b)
		if prefix, u = s.sign(v < 0), uint64(v); v < 0 {
			u = -u
		}
	}
	body = strconv.FormatUint(u, []int{10, 8, 16, 16}[strings.IndexByte("oxX", s.Conv)+1]) // base
	if s.Prec == 0 && u == 0 {
		body = ""
	}
	zeros = max(s.Prec-len(body), 0)
	switch {
	case s.flag('#') && s.Conv == 'o' && zeros == 0 && !strings.HasPrefix(body, "0"):
		zeros = 1
	case s.flag('#') && u != 0 && (s.Conv == 'x' || s.Conv == 'X'):
		prefix = "0" + string(s.Conv)
	}
	if s.Conv == 'X' {
		body = strings.ToUpper(body)
	}
	return prefix, zeros, body
}

// float renders f g e: inf and nan in lower case, %g's precision counting
// significant digits and its trailing zeros dropped unless '#', and '#'
// keeping the decimal point.
func (s Spec) float(v float64) (prefix, body string) {
	prefix, v = s.sign(math.Signbit(v)), math.Abs(v)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return prefix, strings.ToLower(strings.TrimPrefix(strconv.FormatFloat(v, 'f', -1, 64), "+")) // Go's +Inf, NaN
	}
	conv, prec := s.Conv, s.Prec
	if prec < 0 {
		prec = 6
	}
	if conv == 'g' {
		p := max(prec, 1)
		e := strconv.FormatFloat(v, 'e', p-1, 64)
		x, _ := strconv.Atoi(e[strings.IndexByte(e, 'e')+1:])
		conv, prec = 'e', p-1
		if -4 <= x && x < p {
			conv, prec = 'f', p-1-x
		}
	}
	body = strconv.FormatFloat(v, conv, prec, 64)
	i := strings.IndexByte(body+"e", 'e')
	mant := body[:i]
	switch {
	case s.Conv == 'g' && !s.flag('#') && strings.Contains(mant, "."):
		mant = strings.TrimRight(strings.TrimRight(mant, "0"), ".")
	case s.flag('#') && !strings.Contains(mant, "."):
		mant += "."
	}
	return prefix, mant + body[i:]
}

// StrLen is the length %s renders for a string of n bytes: the
// precision cuts it, the width pads it.
func (s Spec) StrLen(n int64) int64 {
	if s.Prec >= 0 {
		n = min(n, int64(s.Prec))
	}
	return max(n, int64(s.Width))
}

// LenRange bounds the length of an ArgInt or ArgPtr conversion over
// every argument in [lo, hi]. An interval at least as wide as the type
// the conversion reads, such as math.MinInt64 to math.MaxInt64 for an
// unknown value, spans the whole type. Only the extremal values are
// rendered: the ends, and those next to each wrap of the type or reading
// as -1, 0 or 1; between them the length is monotone. ok is false for a
// conversion or length modifier the model does not bound.
func (s Spec) LenRange(lo, hi int64) (least, most int64, ok bool) {
	b := s.bits()
	if k := s.Kind(); (k != ArgInt && k != ArgPtr) || b == 0 {
		return 0, 0, false
	}
	if b < 64 && uint64(hi-lo) >= 1<<b-1 {
		lo, hi = -1<<(b-1), 1<<(b-1)-1
		if s.Conv != 'd' && s.Conv != 'i' {
			lo, hi = 0, 1<<b-1
		}
	}
	least, most = math.MaxInt64, 0
	try := func(v int64) {
		if v >= lo && v <= hi {
			n := s.layout(Arg{Int: v}).len()
			least, most = min(least, n), max(most, n)
		}
	}
	try(lo)
	try(hi)
	for d := int64(-1); d <= 1; d++ {
		try(d)
		for k := lo >> b; b < 64 && k <= hi>>b+1; k++ {
			try(k<<b + d)
			try(k<<b + 1<<(b-1) + d)
		}
	}
	return least, most, true
}
