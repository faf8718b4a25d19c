package cinterp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/ctoken"
)

// formatC renders a printf-style format string against evaluated
// arguments, with C semantics for the conversions the paper's corpora use.
// Crucially, integer conversions go through the C default-argument
// promotions: a negative char passed to %o is sign-extended to int and
// then read as unsigned — the exact mechanism behind the LibTIFF
// vulnerability of Section IV-A2.
func (in *Interp) formatC(format string, args []Value, at ctoken.Extent) string {
	var sb strings.Builder
	argi := 0
	next := func() Value {
		if argi < len(args) {
			v := args[argi]
			argi++
			return v
		}
		return IntV(0)
	}
	i := 0
	for i < len(format) {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			i++
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			sb.WriteByte('%')
			i++
			continue
		}
		spec, n := backend.ParseSpec(format[i:])
		if spec.Conv == 0 {
			break
		}
		i += n
		sb.WriteString(in.renderSpec(spec, next, at))
	}
	return sb.String()
}

// renderSpec renders one conversion.
func (in *Interp) renderSpec(s backend.Spec, next func() Value, at ctoken.Extent) string {
	pad := func(body string, negative bool) string {
		if s.Prec >= 0 && isIntConv(s.Conv) {
			// Precision = minimum digits for integer conversions.
			for len(body) < s.Prec {
				body = "0" + body
			}
		}
		if negative {
			body = "-" + body
		} else if s.Plus && isIntConv(s.Conv) && s.Conv != 'u' {
			body = "+" + body
		}
		if s.Width > 0 {
			for len(body) < s.Width {
				if s.Minus {
					body += " "
				} else if s.Zero && s.Prec < 0 {
					if negative {
						// Keep the sign ahead of zero padding.
						body = "-0" + body[1:]
						continue
					}
					body = "0" + body
				} else {
					body = " " + body
				}
			}
		}
		return body
	}

	switch s.Conv {
	case 'd', 'i':
		v := next().AsInt()
		v = promoteForLength(v, s.Length)
		neg := v < 0
		body := strconv.FormatInt(abs64(v), 10)
		return pad(body, neg)
	case 'u':
		v := next().AsInt()
		return pad(strconv.FormatUint(toUnsigned(v, s.Length), 10), false)
	case 'o':
		v := next().AsInt()
		body := strconv.FormatUint(toUnsigned(v, s.Length), 8)
		if s.Hash && !strings.HasPrefix(body, "0") {
			body = "0" + body
		}
		return pad(body, false)
	case 'x':
		v := next().AsInt()
		body := strconv.FormatUint(toUnsigned(v, s.Length), 16)
		if s.Hash {
			body = "0x" + body
		}
		return pad(body, false)
	case 'X':
		v := next().AsInt()
		body := strings.ToUpper(strconv.FormatUint(toUnsigned(v, s.Length), 16))
		if s.Hash {
			body = "0X" + body
		}
		return pad(body, false)
	case 'c':
		return pad(string([]byte{byte(next().AsInt())}), false)
	case 's':
		v := next()
		var str string
		if v.K == VPtr {
			str = in.readCString(v.P, at)
		}
		if s.Prec >= 0 && len(str) > s.Prec {
			str = str[:s.Prec]
		}
		if s.Width > 0 {
			for len(str) < s.Width {
				if s.Minus {
					str += " "
				} else {
					str = " " + str
				}
			}
		}
		return str
	case 'p':
		v := next()
		if v.K == VPtr && !v.P.IsNull() {
			return fmt.Sprintf("0x%x", uint64(v.P.Obj.ID)<<16+uint64(v.P.Off))
		}
		return "(nil)"
	case 'f', 'g', 'e':
		v := next().AsFloat()
		prec := s.Prec
		if prec < 0 {
			prec = 6
		}
		var body string
		switch s.Conv {
		case 'f':
			body = strconv.FormatFloat(v, 'f', prec, 64)
		case 'e':
			body = strconv.FormatFloat(v, 'e', prec, 64)
		default:
			body = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return pad(body, false)
	default:
		// Unknown conversion: emit it literally (matches glibc's lenient
		// behavior closely enough for the corpora).
		return "%" + string(s.Conv)
	}
}

func isIntConv(c byte) bool {
	switch c {
	case 'd', 'i', 'u', 'o', 'x', 'X':
		return true
	default:
		return false
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// promoteForLength truncates per the length modifier (h, hh) or keeps the
// promoted int/long value.
func promoteForLength(v int64, length string) int64 {
	switch length {
	case "hh":
		return int64(int8(v))
	case "h":
		return int64(int16(v))
	default:
		return v
	}
}

// toUnsigned reads the promoted value as the unsigned type the conversion
// expects. Without an 'l' length modifier the C default promotion makes
// the argument an int, read as unsigned int (32 bits) — the
// sign-extension trap: (char)0x80 → int -128 → unsigned 0xFFFFFF80.
func toUnsigned(v int64, length string) uint64 {
	switch {
	case strings.ContainsAny(length, "lzj"):
		return uint64(v)
	case length == "h":
		return uint64(uint16(v))
	case length == "hh":
		return uint64(uint8(v))
	default:
		return uint64(uint32(v))
	}
}
