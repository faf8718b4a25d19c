package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/digest"
)

// mayModDigestPath holds one line per corpus: the number of lines of its
// may-modify rendering and the SHA-256 of the rendering.
var mayModDigestPath = filepath.Join("testdata", "maymod.digest")

// mayModProbe holds the call shapes the may-modify fixpoint has to get
// right beyond the corpora: two definitions of one name (they share one
// by-name entry, sized by the later one), mutual recursion that writes
// and mutual recursion that does not, a chain of four whose callers come
// before their callees, variadic extra arguments, calls through function
// pointers, escapes into global and member storage, and calls to
// functions neither defined nor modeled.
const mayModProbe = `
struct holder { char *f; };
char *saved;
void (*hook)(char *);

void dup(char *a) { a[0] = 'x'; }
void dup(char *a, char *b) { strcpy(b, "x"); }
void dup_user(char *p, char *q, char *r) { dup(p, q); dup(r); }

void pong(char *p, int n) { if (n) ping(p, n - 1); }
void ping(char *p, int n) { if (n) pong(p + 1, n - 1); else *p = 0; }
void ro_pong(char *p, int n) { if (n) ro_ping(p, n - 1); }
void ro_ping(char *p, int n) { if (n) ro_pong(p, n - 1); }

void chain0(char *p, char *q) { chain1(q, p); }
void chain1(char *p, char *q) { chain2(p, q); }
void chain2(char *p, char *q) { chain3((char *)p + 1, q); }
void chain3(char *p, char *q) { p[1] = 'x'; strlen(q); }

void vlog(char *fmt, ...) { }
void vuser(char *a, char *b) { vlog(a, b); }
void vlib(char *out, char *in) { sprintf(out, "%s", in); }

void via_global(char *p) { hook(p); }
void via_param(char *p, void (*fp)(char *)) { fp(p); }
void via_deref(char *p, void (*fp)(char *)) { (*fp)(p); }

void escape_global(char *p) { saved = p; }
void escape_member(struct holder *h, char *p) { h->f = p; }
void escape_local(char *p) { char *q; q = p; }

void unknown(char *p) { mystery(p); }
void library_ro(char *p) { strlen(p); printf(p); }
void address(char *p) { memset(&p[2], 0, 1); }
`

// renderMayModify writes, for every function definition of one unit in
// source order, the may-modify bit of each parameter and of one extra
// argument position past them.
func renderMayModify(t *testing.T, sb *strings.Builder, u oracleUnit) {
	t.Helper()
	s, err := Parse(u.name, u.source)
	if err != nil {
		t.Fatalf("%s: parse: %v", u.name, err)
	}
	mm := s.MayModify()
	fmt.Fprintf(sb, "== %s\n", u.name)
	for _, fn := range s.Unit().Funcs {
		sb.WriteString(fn.Name)
		for i := 0; i <= len(fn.Params); i++ {
			if mm.MayModifyParam(fn.Name, i) {
				sb.WriteString(" 1")
			} else {
				sb.WriteString(" 0")
			}
		}
		sb.WriteByte('\n')
	}
}

// TestMayModifyDigest holds the interprocedural may-modify facts (STR's
// Section III-C guard) over the SAMATE corpus, the integer-overflow
// corpus, the libtiff fixture, the session unit and the call-shape probe
// to the digests committed in testdata: any change to what the solver
// concludes for any parameter of any defined function changes a digest.
func TestMayModifyDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := oracleCorpora()
	corpora["session"] = []oracleUnit{{"tif_all.c", sessionUnit()}}
	corpora["probe"] = append(corpora["probe"], oracleUnit{"maymod.c", mayModProbe})
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	var sections []digest.Section
	for _, corp := range names {
		var sb strings.Builder
		for _, u := range corpora[corp] {
			renderMayModify(t, &sb, u)
		}
		sections = append(sections, digest.Section{Key: corp, Dump: sb.String()})
	}
	digest.Check(t, mayModDigestPath, sections)
}

// sessionUnit is the large unit editor sessions run on: the libtiff
// corpus concatenated into one unit plus planted toggle functions, each
// a buffer write whose length an edit flips.
func sessionUnit() string {
	p, ok := corpus.ProjectByName("libtiff", 2)
	if !ok {
		panic("corpus has no libtiff project")
	}
	var sb strings.Builder
	sb.WriteString(p.ConcatenatedUnit())
	for k := 0; k < 24; k++ {
		size := 8 + 2*k
		fmt.Fprintf(&sb, "\nvoid bench_toggle%d(void) {\n    char buf%d[%d];\n    memset(buf%d, 'A', %d);\n}\n",
			k, k, size, k, size+8*(k%2))
	}
	return sb.String()
}
