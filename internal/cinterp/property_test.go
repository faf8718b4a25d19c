package cinterp

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// exprGen builds a random C integer expression and, in lockstep, computes
// its expected value with Go int64 arithmetic (the interpreter models
// 64-bit long arithmetic for in-range int operations).
type exprGen struct {
	r     uint64
	depth int
}

func (g *exprGen) next(n int) int {
	g.r = g.r*6364136223846793005 + 1442695040888963407
	if n <= 0 {
		return 0
	}
	return int((g.r >> 33) % uint64(n))
}

// gen returns (cText, value).
func (g *exprGen) gen() (string, int64) {
	if g.depth > 4 || g.next(3) == 0 {
		v := int64(g.next(200) - 100)
		if v < 0 {
			// Parenthesize negatives to keep the C well-formed anywhere.
			return "(" + strconv.FormatInt(v, 10) + ")", v
		}
		return strconv.FormatInt(v, 10), v
	}
	g.depth++
	defer func() { g.depth-- }()
	l, lv := g.gen()
	r, rv := g.gen()
	switch g.next(6) {
	case 0:
		return "(" + l + " + " + r + ")", lv + rv
	case 1:
		return "(" + l + " - " + r + ")", lv - rv
	case 2:
		return "(" + l + " * " + r + ")", lv * rv
	case 3:
		return "(" + l + " & " + r + ")", lv & rv
	case 4:
		return "(" + l + " | " + r + ")", lv | rv
	default:
		return "(" + l + " ^ " + r + ")", lv ^ rv
	}
}

// TestPropertyExpressionSemantics evaluates random constant expressions
// and compares against Go-computed ground truth.
func TestPropertyExpressionSemantics(t *testing.T) {
	f := func(seed uint64) bool {
		g := &exprGen{r: seed}
		var exprs []string
		var want []int64
		for i := 0; i < 4; i++ {
			e, v := g.gen()
			exprs = append(exprs, e)
			want = append(want, v)
		}
		var sb strings.Builder
		sb.WriteString("int main(void) {\n")
		for i, e := range exprs {
			fmt.Fprintf(&sb, "    long v%d = %s;\n", i, e)
		}
		sb.WriteString(`    printf("`)
		for range exprs {
			sb.WriteString("%ld ")
		}
		sb.WriteString(`"`)
		for i := range exprs {
			fmt.Fprintf(&sb, ", v%d", i)
		}
		sb.WriteString(");\n    return 0;\n}\n")

		res, err := loadAndRun("prop.c", sb.String(), "main", nil, Limits{})
		if err != nil {
			t.Logf("run error: %v\n%s", err, sb.String())
			return false
		}
		var wantOut strings.Builder
		for _, v := range want {
			fmt.Fprintf(&wantOut, "%d ", v)
		}
		if res.Stdout != wantOut.String() {
			t.Logf("mismatch:\nprogram:\n%s\ngot:  %q\nwant: %q", sb.String(), res.Stdout, wantOut.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMemsetStrlen: for any fill length n < cap, strlen after
// memset+NUL is n — a round-trip through the checked memory model.
func TestPropertyMemsetStrlen(t *testing.T) {
	f := func(rawN uint8) bool {
		n := int(rawN%63) + 1
		src := fmt.Sprintf(`
int main(void) {
    char buf[64];
    memset(buf, 'q', %d);
    buf[%d] = '\0';
    printf("%%d", strlen(buf));
    return 0;
}
`, n, n)
		res, err := loadAndRun("p.c", src, "main", nil, Limits{})
		if err != nil || res.HasViolations() {
			return false
		}
		return res.Stdout == strconv.Itoa(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOverflowAlwaysDetected: any strcpy of a string longer than
// the destination triggers a violation; any shorter string does not.
func TestPropertyOverflowAlwaysDetected(t *testing.T) {
	f := func(rawCap, rawLen uint8) bool {
		capN := int(rawCap%30) + 2
		strLen := int(rawLen % 60)
		src := fmt.Sprintf(`
int main(void) {
    char dst[%d];
    strcpy(dst, "%s");
    return 0;
}
`, capN, strings.Repeat("a", strLen))
		res, err := loadAndRun("p.c", src, "main", nil, Limits{})
		if err != nil {
			return false
		}
		overflows := strLen+1 > capN
		return res.HasViolations() == overflows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
