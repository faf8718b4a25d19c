package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/digest"
	"repro/internal/overflow"
	"repro/internal/project"
)

// lintDigestPath holds one line per (corpus, mode, variant): the number of
// lines rendered and the SHA-256 of the rendering.
var lintDigestPath = filepath.Join("testdata", "lint_answer.digest")

// lintVariants are the option sets every corpus is linted under, by
// section name: checks buf and all, and all under a solver budget small
// enough that many units degrade.
var lintVariants = []struct {
	name string
	opts core.Options
}{
	{"buf", core.Options{Checks: "buf"}},
	{"all", core.Options{Checks: "all"}},
	{"all-budget16", core.Options{Checks: "all", Budget: 16}},
}

// renderLint writes one unit's lint answer: every field of every
// finding, then every degradation. An error is rendered in its place.
func renderLint(t *testing.T, w io.Writer, name string, fs []overflow.Finding, degraded []string, err string) {
	t.Helper()
	fmt.Fprintf(w, "== %s\n", name)
	if err != "" {
		fmt.Fprintf(w, "error: %s\n", err)
		return
	}
	for _, f := range fs {
		line, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "finding %s\n", line)
	}
	for _, d := range degraded {
		fmt.Fprintf(w, "degraded %s\n", d)
	}
}

// lintDirect lints one unit as `cfix -lint` and /v1/lint do.
func lintDirect(t *testing.T, w io.Writer, in core.FileInput, opts core.Options) {
	rep, err := core.Fix(context.Background(), in.Filename, in.Source, core.LintOptions(opts))
	if err != nil {
		renderLint(t, w, in.Filename, nil, nil, err.Error())
		return
	}
	renderLint(t, w, in.Filename, rep.Findings, rep.Degraded, "")
}

// lintProject lints p as `cfix -p -lint` and /v1/project with lint_only
// do.
func lintProject(t *testing.T, w io.Writer, p *project.Project, opts core.Options) {
	rep, err := p.Analyze(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range rep.Files {
		if out.Err != "" {
			renderLint(t, w, out.File, nil, nil, out.Err)
			continue
		}
		renderLint(t, w, out.File, out.Fix.Findings, out.Fix.Degraded, "")
	}
}

// libtiffFixture loads internal/project's checked-in libtiff-shaped
// database, whose paths are relative to its own directory.
func libtiffFixture(t *testing.T) *project.Project {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "project", "testdata", "libtiff")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	p, err := project.Load("compile_commands.json")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLintAnswerDigest holds the lint answer — findings and
// degradations — of every unit of the fix differential's corpora linted
// one file at a time, and of the corpus projects and the libtiff fixture
// linted in project mode, under checks buf and all and under a small
// budget, to the digests committed in testdata. It is the refactoring net under the lint entry
// points: any change to what a lint run reports, in either mode, changes
// a digest.
func TestLintAnswerDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential")
	}
	corpora := core.FixCorpora()
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	var sections []digest.Section
	for _, corp := range names {
		for _, v := range lintVariants {
			var sb strings.Builder
			for _, in := range corpora[corp] {
				lintDirect(t, &sb, in, v.opts)
			}
			sections = append(sections, digest.Section{Key: corp + "/direct/" + v.name, Dump: sb.String()})
		}
	}
	projects := map[string]*project.Project{"libtiff-fixture": libtiffFixture(t)}
	for _, p := range corpus.Generate(0) {
		files := make(map[string]string, len(p.Files))
		for _, f := range p.Files {
			files[f.Name] = f.Source
		}
		projects["project-"+p.Name] = project.InMemory(files, nil, nil)
	}
	names = names[:0]
	for name := range projects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, v := range lintVariants {
			var sb strings.Builder
			lintProject(t, &sb, projects[name], v.opts)
			sections = append(sections, digest.Section{Key: name + "/project/" + v.name, Dump: sb.String()})
		}
	}
	digest.Check(t, lintDigestPath, sections)
}
