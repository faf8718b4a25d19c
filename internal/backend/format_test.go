package backend

import "testing"

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		n    int
	}{
		{"d", Spec{Width: -1, Prec: -1, Conv: 'd'}, 1},
		{"-08.3lx!", Spec{Minus: true, Zero: true, Width: 8, Prec: 3, Length: "l", Conv: 'x'}, 7},
		{"+ #o", Spec{Plus: true, Space: true, Hash: true, Width: -1, Prec: -1, Conv: 'o'}, 4},
		{".s", Spec{Width: -1, Prec: 0, Conv: 's'}, 2},
		{"hhjzu", Spec{Width: -1, Prec: -1, Length: "hhjz", Conv: 'u'}, 5},
		{"*d", Spec{Width: -1, Prec: -1, Conv: '*'}, 1},
		{"12", Spec{Width: 12, Prec: -1}, 2},
		{"99999999999999999999d", Spec{Width: -1, Prec: -1, Conv: 'd'}, 21},
	}
	for _, c := range cases {
		got, n := ParseSpec(c.in)
		if got != c.want || n != c.n {
			t.Errorf("ParseSpec(%q) = %+v, %d; want %+v, %d", c.in, got, n, c.want, c.n)
		}
	}
}
