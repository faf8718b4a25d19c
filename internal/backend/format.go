package backend

import (
	"strconv"
	"strings"
)

// Spec is one printf conversion specification: the flags, the field
// width and precision (-1 when absent), the length modifier and the
// conversion character (0 when the format ends first). The checked
// interpreter renders it and the buffer oracle bounds it, each by its
// own rule for which specs it handles.
type Spec struct {
	Minus, Zero, Plus, Space, Hash bool
	Width, Prec                    int
	Length                         string
	Conv                           byte
}

// ParseSpec parses the conversion specification at the start of s, the
// text just past a '%', and returns it with the number of bytes it
// spans, the conversion included. Width and precision are decimal digit
// runs: a width too large for an int is absent, a precision too large
// is the largest int, and a '.' with no digits is precision 0. Length
// collects any run of h, l, z, j and t.
func ParseSpec(s string) (Spec, int) {
	sp := Spec{Width: -1, Prec: -1}
	i := 0
flags:
	for ; i < len(s); i++ {
		switch s[i] {
		case '-':
			sp.Minus = true
		case '0':
			sp.Zero = true
		case '+':
			sp.Plus = true
		case ' ':
			sp.Space = true
		case '#':
			sp.Hash = true
		default:
			break flags
		}
	}
	digits := func() string {
		start := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return s[start:i]
	}
	if w := digits(); w != "" {
		if n, err := strconv.Atoi(w); err == nil {
			sp.Width = n
		}
	}
	if i < len(s) && s[i] == '.' {
		i++
		sp.Prec, _ = strconv.Atoi(digits())
	}
	start := i
	for i < len(s) && strings.IndexByte("hlzjt", s[i]) >= 0 {
		i++
	}
	sp.Length = s[start:i]
	if i < len(s) {
		sp.Conv = s[i]
		i++
	}
	return sp, i
}
