package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	tiff "repro/internal/corpus"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/overflow"
)

// benchEdits is how many edits one session takes before the editor
// closes and reopens it, as in the session workload of cmd/bench.
const benchEdits = 200

// benchEditor is one client's view of the session workload's document:
// the libtiff corpus concatenated into one unit (filler 2) plus 24
// planted toggles, each a buffer whose memset an edit flips between
// overflowing and safe.
type benchEditor struct {
	rng  *rand.Rand
	text string
	size []int
	over []bool
}

func newBenchEditor(tb testing.TB, seed int64) *benchEditor {
	p, ok := tiff.ProjectByName("libtiff", 2)
	if !ok {
		tb.Fatal("corpus has no libtiff project")
	}
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(p.ConcatenatedUnit())
	e := &benchEditor{size: make([]int, 24), over: make([]bool, 24)}
	for k := range e.size {
		e.size[k], e.over[k] = 8+rng.Intn(56), rng.Intn(2) == 0
		fmt.Fprintf(&sb, "\nvoid bench_toggle%d(void) {\n    char buf%d[%d];\n    memset(buf%d, 'A', %d);\n}\n",
			k, k, e.size[k], k, benchWriteLen(e.size[k], e.over[k]))
	}
	e.text, e.rng = sb.String(), rand.New(rand.NewSource(rng.Int63()))
	return e
}

// benchWriteLen is a toggle's memset length: past the end when over.
func benchWriteLen(size int, over bool) int {
	if over {
		return size + 8
	}
	return size / 2
}

// next flips one random toggle in the editor's text and returns the
// edit as a delta against the previous text.
func (e *benchEditor) next() edit.Delta {
	k := e.rng.Intn(len(e.size))
	marker := fmt.Sprintf("memset(buf%d, 'A', ", k)
	width := len(fmt.Sprint(benchWriteLen(e.size[k], e.over[k])))
	e.over[k] = !e.over[k]
	repl := fmt.Sprint(benchWriteLen(e.size[k], e.over[k]))
	at := strings.Index(e.text, marker) + len(marker)
	e.text = e.text[:at] + repl + e.text[at+width:]
	return edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + width)}, repl)
}

// overflows is the number of toggles that currently overflow.
func (e *benchEditor) overflows() int {
	n := 0
	for _, o := range e.over {
		if o {
			n++
		}
	}
	return n
}

// BenchmarkSessionEdit makes the session workload's edits in process,
// with no HTTP: one editor, one number in one planted function per edit,
// the session reopened (untimed) every 200 edits. Run it with -benchmem
// to size a change to any layer an in-body edit goes through.
func BenchmarkSessionEdit(b *testing.B) {
	ctx := context.Background()
	e := newBenchEditor(b, 1)
	var s *Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchEdits == 0 {
			b.StopTimer()
			var err error
			if s, _, err = Open(ctx, "tif_all.c", e.text, Config{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		res, err := s.Edit(ctx, []edit.Delta{e.next()})
		if err != nil {
			b.Fatal(err)
		}
		definite := 0
		for _, f := range res.Findings {
			if f.Severity == overflow.SevDefinite && bufCWE(f.CWE) {
				definite++
			}
		}
		if definite != e.overflows() {
			b.Fatalf("edit %d: %d definite overflows, want the %d planted", i, definite, e.overflows())
		}
	}
}

// bufCWE reports whether cwe is one of the buffer oracle's classes.
func bufCWE(cwe int) bool {
	switch cwe {
	case 121, 122, 124, 126, 127, 242:
		return true
	}
	return false
}
