package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/digest"
	"repro/internal/samate"
)

// fixDigestPath holds one line per (corpus, backend): the number of
// lines rendered and the SHA-256 of the rendering.
var fixDigestPath = filepath.Join("testdata", "fix_output.digest")

// fixCorpora returns the differential's inputs by corpus name: every
// SAMATE program, the integer-overflow corpus, and each of the four
// corpus projects at filler 0, one file per unit.
func fixCorpora() map[string][]FileInput {
	out := make(map[string][]FileInput)
	add := func(corp string, byCWE map[int][]samate.Program) {
		cwes := make([]int, 0, len(byCWE))
		for cwe := range byCWE {
			cwes = append(cwes, cwe)
		}
		sort.Ints(cwes)
		for _, cwe := range cwes {
			for _, p := range byCWE[cwe] {
				out[corp] = append(out[corp], FileInput{Filename: p.ID + ".c", Source: p.Source})
			}
		}
	}
	add("samate", samate.GenerateAll())
	add("int", samate.IntGenerateAll())
	for _, p := range corpus.Generate(0) {
		for _, f := range p.Files {
			out["project-"+p.Name] = append(out["project-"+p.Name], FileInput{Filename: f.Name, Source: f.Source})
		}
	}
	return out
}

// renderFix writes the Fix report of one unit under one backend: the
// report as JSON, then every SLR and STR edit (extent, text, owner),
// which the JSON omits. A Fix error is rendered in place of the report.
func renderFix(t *testing.T, w io.Writer, in FileInput, be string) {
	t.Helper()
	fmt.Fprintf(w, "== %s %s\n", in.Filename, be)
	rep, err := Fix(context.Background(), in.Filename, in.Source, Options{SelectOffset: -1, Backend: be, Lint: true})
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
		return
	}
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "report %s\n", line)
	if rep.SLR != nil {
		for _, e := range rep.SLR.Edits {
			fmt.Fprintf(w, "slr [%d,%d) %q %q\n", e.Extent.Pos, e.Extent.End, e.Text, e.Owner)
		}
	}
	if rep.STR != nil {
		for _, e := range rep.STR.Edits {
			fmt.Fprintf(w, "str [%d,%d) %q %q\n", e.Extent.Pos, e.Extent.End, e.Text, e.Owner)
		}
	}
}

// TestFixOutputDigest holds Fix's output — the report and the raw SLR
// and STR edits behind it — over the SAMATE corpus, the integer-overflow
// corpus and the four corpus projects under each backend, to the digests
// committed in testdata. It is the refactoring net under the edit
// plumbing from the transformers to the splice: any change to what a
// transformation emits, how its edits are tagged or how they are applied
// changes a digest.
func TestFixOutputDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := fixCorpora()
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	var sections []digest.Section
	for _, corp := range names {
		for _, be := range Backends() {
			var sb strings.Builder
			for _, in := range corpora[corp] {
				renderFix(t, &sb, in, be)
			}
			sections = append(sections, digest.Section{Key: corp + "/" + be, Dump: sb.String()})
		}
	}
	digest.Check(t, fixDigestPath, sections)
}
