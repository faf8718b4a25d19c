package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/digest"
	"repro/internal/pointsto"
)

// pointsToDigestPath holds one line per corpus: the number of lines of
// its points-to rendering and the SHA-256 of the rendering.
var pointsToDigestPath = filepath.Join("testdata", "pointsto.digest")

// pointsToProbe holds the constraint shapes the solver has to get right
// beyond the corpora: string literals and heap sites, copies that form a
// cycle, loads and stores through pointers, stores of addresses through
// pointers, nested assignments, pointer arithmetic, conditionals, and
// member accesses through values and pointers.
const pointsToProbe = `
struct pair { char *a; char *b; };
char *g1, *g2;
char **gpp;

void shapes(void) {
    char buf[8], other[4];
    char *p = "lit", *q, *r, *s;
    char **pp = &q;
    struct pair pr, *pq = &pr;
    q = buf;
    r = q; s = r; q = s;
    *pp = other;
    p = *pp;
    gpp = &g1;
    *gpp = &buf[2];
    g2 = (q = malloc(4)) + 1;
    s = p ? p : other;
    pr.a = buf;
    pq->b = other;
    g1 = pr.b;
}
`

// renderPointsTo writes, for every symbol of one unit that has a
// points-to node, in symbol ID order, its solved points-to set and its
// alias class. A symbol is named by its tag (name@owner#size, as the
// alias fingerprint names it); a heap or string object by its kind and
// the offset of the allocating call or literal.
func renderPointsTo(t *testing.T, sb *strings.Builder, u oracleUnit) {
	t.Helper()
	s, err := Parse(u.name, u.source)
	if err != nil {
		t.Fatalf("%s: parse: %v", u.name, err)
	}
	pt, aliases := s.PointsTo(), s.Aliases()
	tags := newSymTags(s.Unit(), aliases)
	fmt.Fprintf(sb, "== %s\n", u.name)
	var names []string
	for _, sym := range s.Unit().Symbols {
		class := aliases.AliasSetOf(sym)
		if class == nil {
			continue
		}
		names = names[:0]
		for _, n := range pt.PointsTo(sym) {
			names = append(names, objectName(tags, n))
		}
		sort.Strings(names)
		fmt.Fprintf(sb, "%s p=%s a=%s\n", tags.symTag(sym), strings.Join(names, ","), tags.setTag(class))
	}
}

// objectName renders a points-to object parse-stably.
func objectName(tags *symTags, n *pointsto.Node) string {
	switch {
	case n.Kind == pointsto.NodeVar && n.Sym != nil:
		return tags.symTag(n.Sym)
	case n.Kind == pointsto.NodeHeap && n.Site != nil:
		return fmt.Sprintf("heap@%d", n.Site.Extent().Pos)
	case n.Kind == pointsto.NodeString && n.Site != nil:
		return fmt.Sprintf("str@%d", n.Site.Extent().Pos)
	default:
		return n.String()
	}
}

// TestPointsToDigest holds the solved points-to sets and alias classes
// the paper's alias analysis (Section III-A) gives over the SAMATE
// corpus, the integer-overflow corpus, the libtiff fixture and the
// session unit to the digests committed in testdata: any change to what
// any symbol may point to or alias changes a digest.
func TestPointsToDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := oracleCorpora()
	corpora["probe"] = []oracleUnit{{"pointsto.c", pointsToProbe}}
	corpora["session"] = []oracleUnit{{"tif_all.c", sessionUnit()}}
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	var sections []digest.Section
	for _, corp := range names {
		var sb strings.Builder
		for _, u := range corpora[corp] {
			renderPointsTo(t, &sb, u)
		}
		sections = append(sections, digest.Section{Key: corp, Dump: sb.String()})
	}
	digest.Check(t, pointsToDigestPath, sections)
}
