package cparse_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/corpus"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/digest"
	"repro/internal/samate"
)

// astDigestPath holds one line per corpus: the number of lines of its
// AST dump and the SHA-256 of the dump.
var astDigestPath = filepath.Join("testdata", "ast_dump.digest")

// unit is one translation unit of the AST differential's inputs.
type unit struct{ name, source string }

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

// astCorpora returns the differential's inputs by corpus name: every
// SAMATE program, the integer-overflow corpus, the libtiff fixture (the
// corpus project's units plus the tiff2pdf CVE miniature) and the
// session unit.
func astCorpora() map[string][]unit {
	out := make(map[string][]unit)
	add := func(corp string, byCWE map[int][]samate.Program) {
		cwes := make([]int, 0, len(byCWE))
		for cwe := range byCWE {
			cwes = append(cwes, cwe)
		}
		sort.Ints(cwes)
		for _, cwe := range cwes {
			for _, p := range byCWE[cwe] {
				out[corp] = append(out[corp], unit{p.ID + ".c", p.Source})
			}
		}
	}
	add("samate", samate.GenerateAll())
	add("int", samate.IntGenerateAll())
	if p, ok := corpus.ProjectByName("libtiff", 0); ok {
		for _, f := range p.Files {
			out["libtiff"] = append(out["libtiff"], unit{f.Name, f.Source})
		}
	}
	out["libtiff"] = append(out["libtiff"], unit{"tiff2pdf.c", corpus.LibtiffCVESource})
	out["session"] = []unit{{"tif_all.c", sessionUnit()}}
	return out
}

// appendAST appends to b one line per node of tu in depth-first order —
// its kind, its extent, every other extent it carries and the symbol it
// binds — and then the unit's symbol table in ID order, each symbol with
// its declaration's extent. A symbol's declaration need not be in the
// tree: a local typedef's declaration statement is kept empty.
func appendAST(b []byte, tu *cast.TranslationUnit) []byte {
	ext := func(e ctoken.Extent) {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(e.Pos), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.End), 10)
		b = append(b, ')')
	}
	sym := func(s *cast.Symbol) {
		if s == nil {
			b = append(b, " -"...)
			return
		}
		b = append(b, " s"...)
		b = strconv.AppendInt(b, int64(s.ID), 10)
		b = append(b, ':')
		b = append(b, s.Name...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(s.Kind), 10)
		b = append(b, ':')
		b = strconv.AppendBool(b, s.IsGlobal)
	}
	cast.Inspect(tu, func(n cast.Node) bool {
		b = append(b, reflect.TypeOf(n).Elem().Name()...)
		b = append(b, ' ')
		ext(n.Extent())
		switch x := n.(type) {
		case *cast.Ident:
			b = append(b, ' ')
			b = append(b, x.Name...)
			sym(x.Sym)
		case *cast.VarDecl:
			b = append(b, ' ')
			ext(x.NameExtent)
			sym(x.Sym)
		case *cast.ParamDecl:
			sym(x.Sym)
		case *cast.FuncDef:
			b = append(b, ' ')
			ext(x.NameExtent)
			sym(x.Sym)
		case *cast.TypedefDecl:
			sym(x.Sym)
		case *cast.CompoundStmt:
			b = append(b, ' ')
			ext(x.LBrace)
			ext(x.RBrace)
		case *cast.CallExpr:
			b = append(b, ' ')
			ext(x.LParen)
			ext(x.RParen)
		}
		b = append(b, '\n')
		return true
	})
	for _, s := range tu.Symbols {
		b = append(b, "sym"...)
		sym(s)
		if s.Decl != nil {
			b = append(b, ' ')
			ext(s.Decl.Extent())
		}
		b = append(b, '\n')
	}
	return b
}

// TestASTDumpDigest holds the parser's output — every node's kind and
// extents and every binding — over the SAMATE corpus, the
// integer-overflow corpus, the libtiff fixture and the session unit, to
// the digests committed in testdata. It is the refactoring net under the
// parser: any change to what it builds, where its extents fall or how
// it numbers and binds symbols changes a digest.
func TestASTDumpDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := astCorpora()
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	var sections []digest.Section
	for _, corp := range names {
		var sb strings.Builder
		for _, u := range corpora[corp] {
			fmt.Fprintf(&sb, "== %s\n", u.name)
			tu, err := cparse.Parse(u.name, u.source)
			if err != nil {
				fmt.Fprintf(&sb, "error: %v\n", err)
				continue
			}
			sb.Write(appendAST(nil, tu))
		}
		sections = append(sections, digest.Section{Key: corp, Dump: sb.String()})
	}
	digest.Check(t, astDigestPath, sections)
}
