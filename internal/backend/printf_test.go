package backend_test

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/overflow"
)

// glibcRow is one row of testdata/printf_glibc.tsv: a conversion spec
// (the text after '%'), the argument's kind (i integer, c char, s
// string, f double, p pointer) and value, and glibc's snprintf output.
type glibcRow struct {
	spec  string
	kind  byte
	value string
	out   string
}

func glibcTable(t *testing.T) []glibcRow {
	t.Helper()
	f, err := os.Open("testdata/printf_glibc.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []glibcRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		cols := strings.Split(line, "\t")
		if len(cols) != 4 || len(cols[1]) != 1 {
			t.Fatalf("malformed row %q", line)
		}
		out, err := strconv.Unquote(cols[3])
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		rows = append(rows, glibcRow{cols[0], cols[1][0], cols[2], out})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10000 {
		t.Fatalf("table has %d rows", len(rows))
	}
	return rows
}

// spec returns the one conversion of the format "%"+text.
func spec(t *testing.T, text string) backend.Spec {
	t.Helper()
	var specs []backend.Spec
	backend.WalkFormat("%"+text, func(s string) { t.Fatalf("%%%s: literal %q", text, s) }, func(sp backend.Spec) bool {
		specs = append(specs, sp)
		return true
	})
	if len(specs) != 1 {
		t.Fatalf("%%%s: %d conversions", text, len(specs))
	}
	return specs[0]
}

func (r glibcRow) arg(t *testing.T) backend.Arg {
	var a backend.Arg
	var err error
	switch r.kind {
	case 'i', 'c', 'p':
		a.Int, err = strconv.ParseInt(r.value, 10, 64)
	case 'f':
		a.Float, err = strconv.ParseFloat(r.value, 64)
	case 's':
		a.Str, err = strconv.Unquote(r.value)
	default:
		err = fmt.Errorf("unknown kind %q", r.kind)
	}
	if err != nil {
		t.Fatalf("row %+v: %v", r, err)
	}
	return a
}

// TestRenderMatchesGlibc checks the renderer against glibc's output on
// every row of the table.
func TestRenderMatchesGlibc(t *testing.T) {
	bad := 0
	for _, r := range glibcTable(t) {
		if got := string(spec(t, r.spec).Append(nil, r.arg(t))); got != r.out {
			if bad++; bad <= 20 {
				t.Errorf("%%%s of %s: got %q, glibc %q", r.spec, r.value, got, r.out)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d rows differ from glibc", bad)
	}
}

// TestOracleBoundsGlibcTable runs every integer, char, string and double
// row through the buffer oracle as sprintf(b, "%SPEC", V) into char b[L]
// and char b[L+1], where L is the length glibc prints. Known integers and
// strings are bounded exactly: b[L] is a definite overflow (the NUL does
// not fit) and b[L+1] draws no finding. A double is bounded as [1, +inf):
// b[L] draws some finding and b[L+1] no definite one.
func TestOracleBoundsGlibcTable(t *testing.T) {
	var rows []glibcRow
	for _, r := range glibcTable(t) {
		if r.kind != 'p' {
			rows = append(rows, r)
		}
	}
	const perUnit = 400
	for start := 0; start < len(rows); start += perUnit {
		chunk := rows[start:min(start+perUnit, len(rows))]
		var src strings.Builder
		for i, r := range chunk {
			v := r.value
			switch r.kind {
			case 'f':
				if f, _ := strconv.ParseFloat(v, 64); math.IsInf(f, 0) || math.IsNaN(f) {
					v = "(0.0 / 0.0)"
				} else if !strings.ContainsAny(v, ".e") {
					v += ".0"
				}
			case 's':
				s, _ := strconv.Unquote(v)
				v = strconv.Quote(s)
			}
			for _, extra := range []int{0, 1} {
				fmt.Fprintf(&src, "void r%d_%d(void) { char b[%d]; sprintf(b, \"%%%s\", %s); }\n",
					i, extra, len(r.out)+extra, r.spec, v)
			}
		}
		snap, err := analysis.Parse("table.c", src.String())
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		found := map[string]overflow.Severity{}
		for _, f := range snap.Findings() {
			found[f.Function] = max(found[f.Function], f.Severity)
		}
		for i, r := range chunk {
			at, past := fmt.Sprintf("r%d_0", i), fmt.Sprintf("r%d_1", i)
			name := fmt.Sprintf("%%%s of %s (glibc %q)", r.spec, r.value, r.out)
			switch sevAt, sevPast := found[at], found[past]; {
			case r.kind == 'f':
				if sevAt == 0 || sevPast == overflow.SevDefinite {
					t.Errorf("%s: b[L] %v, b[L+1] %v; want a finding, then none definite", name, sevAt, sevPast)
				}
			case sevAt != overflow.SevDefinite || sevPast != 0:
				t.Errorf("%s: b[L] %v, b[L+1] %v; want definite, then none", name, sevAt, sevPast)
			}
		}
	}
}

// TestLenRangeBruteForce checks the oracle's bound for d i u x X o c
// under each length modifier against every value of random intervals up
// to 2^17 wide, placed across the points where the sign, h and hh
// truncation or the unsigned wrap change the length.
func TestLenRangeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	centers := []int64{0, -1, 1 << 15, -1 << 15, 1 << 16, 1 << 31, 1 << 32}
	flags := []string{"", "+", " ", "#", "0", "-"}
	widths := []string{"", "5", "12"}
	precs := []string{"", ".0", ".3"}
	var buf []byte
	for _, conv := range "diuxXoc" {
		for _, length := range []string{"", "hh", "h", "l"} {
			for _, c := range centers {
				text := flags[rng.Intn(len(flags))] + widths[rng.Intn(len(widths))]
				if conv != 'c' {
					text += precs[rng.Intn(len(precs))]
				}
				text += length + string(conv)
				sp := spec(t, text)
				w := rng.Int63n(1 << 17)
				lo := c - rng.Int63n(w+1)
				hi := lo + w
				least, most := int64(math.MaxInt64), int64(0)
				for v := lo; v <= hi; v++ {
					buf = sp.Append(buf[:0], backend.Arg{Int: v})
					least, most = min(least, int64(len(buf))), max(most, int64(len(buf)))
				}
				gl, gm, ok := sp.LenRange(lo, hi)
				if !ok || gl != least || gm != most {
					t.Errorf("%%%s over [%d, %d]: LenRange = [%d, %d] %v, brute force [%d, %d]", text, lo, hi, gl, gm, ok, least, most)
				}
			}
		}
	}
}
