package incremental

import (
	"context"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	tiff "repro/internal/corpus"
	"repro/internal/ctoken"
	"repro/internal/edit"
)

// plantedFuncs extends the libtiff unit with one instance of every
// dependency the session's invalidation must follow across functions: a
// struct, a typedef and a global array shared by name, a callee whose
// body decides its caller's STR may-modify verdict, and two sibling
// locals of the same name.
const plantedFuncs = `
typedef struct { char tag[16]; int n; } plant_rec;
typedef int plant_len;
static char plant_table[32];

static void plant_touch(char *p, int n) {
    int i;
    for (i = 0; i < n; i++) { n = n + 0; }
}

int plant_caller(void) {
    char *buf;
    buf = malloc(32);
    plant_touch(buf, 4);
    return buf[0];
}

void plant_rec_fill(plant_rec *r) {
    strcpy(r->tag, "0123456789");
}

void plant_table_fill(void) {
    plant_len k = 40;
    memset(plant_table, 0, k);
}

void plant_shadow(int c) {
    if (c) {
        char *p;
        p = malloc(8);
        p[0] = 'a';
    } else {
        char *p;
        p = malloc(16);
        p[0] = 'b';
    }
}
`

// toggle replaces the first occurrence of whichever of a or b the text
// holds with the other, so a script can apply the same edit class any
// number of times.
func toggle(text, a, b string) []edit.Delta {
	from, to := a, b
	at := strings.Index(text, a)
	if at < 0 {
		from, to = b, a
		at = strings.Index(text, b)
	}
	if at < 0 {
		return nil
	}
	return []edit.Delta{edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + len(from))}, to)}
}

// nth returns the offset of a seeded pick among the occurrences of sub.
func nth(rng *rand.Rand, text, sub string) int {
	var idxs []int
	for i := 0; ; {
		j := strings.Index(text[i:], sub)
		if j < 0 {
			break
		}
		idxs = append(idxs, i+j)
		i += j + 1
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[rng.Intn(len(idxs))]
}

// multiFuncEdits are the edit classes of the multi-function script; each
// draws one edit against the current text.
var multiFuncEdits = []struct {
	name string
	make func(rng *rand.Rand, text string) []edit.Delta
}{
	{"in-body digit flip", func(rng *rand.Rand, text string) []edit.Delta {
		at := nth(rng, text, "malloc(2")
		if at < 0 {
			return nil
		}
		at += len("malloc(")
		return []edit.Delta{edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, string(byte('1'+rng.Intn(9))))}
	}},
	{"slr size digit flip", func(rng *rand.Rand, text string) []edit.Delta {
		at := nth(rng, text, "char msg[4")
		if at < 0 {
			return nil
		}
		at += len("char msg[4")
		return []edit.Delta{edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, string(byte('0'+rng.Intn(10))))}
	}},
	{"comment inside a function", func(rng *rand.Rand, text string) []edit.Delta {
		at := nth(rng, text, ") {\n")
		if at < 0 {
			return nil
		}
		return []edit.Delta{edit.Insert(ctoken.Pos(at+len(") {\n")), "    /* inside */\n")}
	}},
	{"comment between functions", func(rng *rand.Rand, text string) []edit.Delta {
		at := nth(rng, text, "}\n\n")
		if at < 0 {
			return nil
		}
		return []edit.Delta{edit.Insert(ctoken.Pos(at+2), "/* between */\n")}
	}},
	{"whitespace inside a function", func(rng *rand.Rand, text string) []edit.Delta {
		at := nth(rng, text, ";\n    ")
		if at < 0 {
			return nil
		}
		return []edit.Delta{edit.Insert(ctoken.Pos(at+1), "  \t")}
	}},
	{"whitespace between functions", func(rng *rand.Rand, text string) []edit.Delta {
		at := nth(rng, text, "}\n\n")
		if at < 0 {
			return nil
		}
		return []edit.Delta{edit.Insert(ctoken.Pos(at+2), "\n \n")}
	}},
	{"callee flips caller's STR verdict", func(_ *rand.Rand, text string) []edit.Delta {
		return toggle(text, "{ n = n + 0; }", "{ p[i] = 'x'; }")
	}},
	{"struct member size", func(_ *rand.Rand, text string) []edit.Delta {
		return toggle(text, "char tag[16];", "char tag[8];")
	}},
	{"global array size", func(_ *rand.Rand, text string) []edit.Delta {
		return toggle(text, "plant_table[32];", "plant_table[64];")
	}},
	{"typedef", func(_ *rand.Rand, text string) []edit.Delta {
		return toggle(text, "typedef int plant_len;", "typedef char plant_len;")
	}},
	{"add or delete a function", func(_ *rand.Rand, text string) []edit.Delta {
		return toggle(text, "\nvoid plant_added(void) {\n    char a[4];\n    strcpy(a, \"toolong\");\n}\n", "\n")
	}},
}

// TestSessionMultiFunctionEquivalence drives one session on the 100 KB
// libtiff unit (plus plantedFuncs) through a seeded script covering every
// edit class, and after each edit requires findings, repair sites and
// dependency hashes byte-identical to a from-scratch run on the same
// text.
func TestSessionMultiFunctionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("opens the 100 KB libtiff unit about 90 times")
	}
	p, ok := tiff.ProjectByName("libtiff", 2)
	if !ok {
		t.Fatal("corpus has no libtiff project")
	}
	text := p.ConcatenatedUnit() + plantedFuncs
	ctx := context.Background()
	s, _, err := Open(ctx, "tif.c", text, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// Every class at least twice (so toggles go there and back), the
	// rest drawn at random: 30 edits.
	rng := rand.New(rand.NewSource(20261017))
	var script []int
	for i := range multiFuncEdits {
		script = append(script, i, i)
	}
	for len(script) < 30 {
		script = append(script, rng.Intn(len(multiFuncEdits)))
	}
	rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })

	verdictFlips := 0
	for n, k := range script {
		class := multiFuncEdits[k]
		deltas := class.make(rng, text)
		if deltas == nil {
			t.Fatalf("edit %d (%s): no place to apply it", n, class.name)
		}
		want, err := edit.NewScript(deltas...).Apply(text)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", n, class.name, err)
		}
		before := callerVerdict(s.Sites())
		res, err := s.Edit(ctx, deltas)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", n, class.name, err)
		}
		if res.Text != want {
			t.Fatalf("edit %d (%s): session text diverges from the reference splice", n, class.name)
		}
		text = want
		if callerVerdict(res.Sites) != before {
			verdictFlips++
		}

		wantF, err := core.Analyze(ctx, "tif.c", text, core.Options{Checks: "all"})
		if err != nil {
			t.Fatalf("edit %d (%s): fresh Analyze: %v", n, class.name, err)
		}
		if !reflect.DeepEqual(res.Findings, wantF) {
			t.Fatalf("edit %d (%s): findings diverge from a fresh analysis", n, class.name)
		}
		_, freshRes, err := Open(ctx, "tif.c", text, Config{})
		if err != nil {
			t.Fatalf("edit %d (%s): fresh Open: %v", n, class.name, err)
		}
		if !reflect.DeepEqual(res.Sites, freshRes.Sites) {
			t.Fatalf("edit %d (%s): sites diverge from a fresh discovery\nsession: %+v\nfresh:   %+v",
				n, class.name, res.Sites, freshRes.Sites)
		}
		snap, err := analysis.Parse("tif.c", text)
		if err != nil {
			t.Fatalf("edit %d (%s): fresh Parse: %v", n, class.name, err)
		}
		if !maps.Equal(s.hashes, snap.FuncHashes()) {
			t.Fatalf("edit %d (%s): session hashes diverge from fresh FuncHashes", n, class.name)
		}
	}
	if verdictFlips == 0 {
		t.Fatal("no callee edit flipped plant_caller's STR verdict; the script missed that class")
	}
}

// callerVerdict reports whether STR would replace plant_caller's buf.
func callerVerdict(sites []Site) bool {
	for _, st := range sites {
		if st.Kind == SiteSTR && st.Function == "plant_caller" && st.Name == "buf" {
			return st.Eligible
		}
	}
	return false
}
