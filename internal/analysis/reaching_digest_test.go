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

// reachingDigestPath holds one line per corpus: the number of lines of
// its reaching-definitions rendering and the SHA-256 of the rendering.
var reachingDigestPath = filepath.Join("testdata", "reaching.digest")

// renderReaching writes, for every function definition of one unit in
// source order and every node of its CFG in ID order, the sorted set of
// definitions reaching the node's entry. A definition is named by its
// node ID, symbol name, member, kind and weak bit.
func renderReaching(t *testing.T, sb *strings.Builder, u oracleUnit) {
	t.Helper()
	s, err := Parse(u.name, u.source)
	if err != nil {
		t.Fatalf("%s: parse: %v", u.name, err)
	}
	fmt.Fprintf(sb, "== %s\n", u.name)
	var defs []string
	for _, fn := range s.Unit().Funcs {
		rd := s.Reaching(fn)
		fmt.Fprintf(sb, "%s\n", fn.Name)
		for _, n := range rd.Graph.Nodes {
			defs = defs[:0]
			for _, d := range rd.In(n) {
				weak := "s"
				if d.Weak {
					weak = "w"
				}
				defs = append(defs, fmt.Sprintf("%d:%s:%s:%d:%s", d.Node.ID, d.Sym.Name, d.Member, d.Kind, weak))
			}
			sort.Strings(defs)
			fmt.Fprintf(sb, "%d %s\n", n.ID, strings.Join(defs, " "))
		}
	}
}

// TestReachingDigest holds the reaching-definitions facts Algorithm 1
// reads over the SAMATE corpus, the integer-overflow corpus, the libtiff
// fixture, the four generated corpus projects and the session unit to
// the digests committed in testdata: any change to which definition
// reaches which CFG node of any function changes a digest.
func TestReachingDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := oracleCorpora()
	delete(corpora, "probe")
	for _, p := range corpus.Generate(0) {
		for _, f := range p.Files {
			corpora["generate"] = append(corpora["generate"], oracleUnit{p.Name + "/" + f.Name, f.Source})
		}
	}
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
			renderReaching(t, &sb, u)
		}
		sections = append(sections, digest.Section{Key: corp, Dump: sb.String()})
	}
	digest.Check(t, reachingDigestPath, sections)
}
