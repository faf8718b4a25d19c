package incremental

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/pointsto"
)

// requireFreshHashes checks that the committed snapshot's dependency
// hashes are, value for value, those of a whole parse of its text.
func requireFreshHashes(t *testing.T, s *Session, what string) {
	t.Helper()
	fresh, err := analysis.Parse(s.name, s.Text())
	if err != nil {
		t.Fatalf("%s: fresh parse: %v", what, err)
	}
	if got, want := s.snap.FuncHashes(), fresh.FuncHashes(); !maps.Equal(got, want) {
		for name, h := range want {
			if got[name] != h {
				t.Fatalf("%s: hash of %s is %.12s, a whole parse gives %.12s", what, name, got[name], h)
			}
		}
		t.Fatalf("%s: %d hashes, a whole parse gives %d", what, len(got), len(want))
	}
}

// localHashesOf applies deltas and returns how many local hashes the
// edit computed, failing the test unless it took the function parse.
func localHashesOf(t *testing.T, s *Session, deltas ...edit.Delta) int64 {
	t.Helper()
	before := analysis.LocalHashes()
	path, err := editPath(t, s, deltas...)
	if err != nil || path != funcParse {
		t.Fatalf("edit took a %s, %v; want a function parse", path, err)
	}
	return analysis.LocalHashes() - before
}

// TestCarriedHashesMatchFresh: after every edit of a randomized script
// over SAMATE and int-corpus programs, and of a script of session
// workload edits on the libtiff session unit, the committed snapshot's
// hashes equal a whole parse's. The workload edits inherit every local
// hash but the edited function's.
func TestCarriedHashesMatchFresh(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20261018))
	carried := 0
	for _, p := range corpus(2) {
		s, _, err := Open(ctx, p.ID+".c", p.Source, Config{})
		if err != nil {
			t.Fatalf("%s: Open: %v", p.ID, err)
		}
		for e := 0; e < 8; e++ {
			before := analysis.LocalHashes()
			if _, err := s.Edit(ctx, randomDelta(rng, s.Text())); err != nil {
				continue
			}
			if analysis.LocalHashes()-before < int64(len(s.snap.Unit().Funcs)) {
				carried++
			}
			requireFreshHashes(t, s, p.ID)
		}
	}
	t.Logf("%d randomized edits to SAMATE and int-corpus programs inherited local hashes", carried)
	if carried == 0 {
		t.Fatal("no randomized edit inherited a local hash; the script missed the carry")
	}

	// A randomized script of in-body edits that move points-to facts
	// other functions' fingerprints read: buffers flowing into and out
	// of globals, buffers resized, locals added and removed, write
	// lengths changed.
	u := newAliasUnit(4)
	s, _ := open(t, u.render())
	carried, full := 0, 0
	for i := 0; i < 40; i++ {
		old := s.Text()
		u.mutate(rng)
		before := analysis.LocalHashes()
		if _, err := s.Edit(ctx, []edit.Delta{edit.Replace(ctoken.Extent{End: ctoken.Pos(len(old))}, u.render())}); err != nil {
			t.Fatalf("alias script edit %d: %v", i, err)
		}
		if analysis.LocalHashes()-before < int64(len(s.snap.Unit().Funcs)) {
			carried++
		} else {
			full++
		}
		requireFreshHashes(t, s, fmt.Sprintf("alias script edit %d", i))
	}
	t.Logf("alias script: %d edits inherited local hashes, %d computed all", carried, full)
	if carried == 0 || full == 0 {
		t.Fatal("the alias script did not exercise both the carry and the fallback")
	}

	if testing.Short() {
		return
	}
	e := newBenchEditor(t, 7)
	s, _ = open(t, e.text)
	for i := 0; i < 20; i++ {
		if n := localHashesOf(t, s, e.next()); n != 1 {
			t.Fatalf("workload edit %d computed %d local hashes, want 1", i, n)
		}
		requireFreshHashes(t, s, "session unit")
	}
}

// aliasUnit models a unit of n workers, each with its own buffer and a
// write into it, and n readers, each writing through one global
// pointer. An edit changes one worker's body: which globals its buffer
// flows into, the buffer's size, the write's length, or an extra local.
type aliasUnit struct {
	size, write []int
	flows       [][]bool
	local       []bool
}

func newAliasUnit(n int) *aliasUnit {
	u := &aliasUnit{size: make([]int, n), write: make([]int, n), flows: make([][]bool, n), local: make([]bool, n)}
	for j := range u.size {
		u.size[j], u.write[j], u.flows[j] = 8, 4, make([]bool, n)
	}
	return u
}

// mutate changes one worker's body at random.
func (u *aliasUnit) mutate(rng *rand.Rand) {
	j := rng.Intn(len(u.size))
	switch rng.Intn(4) {
	case 0:
		k := rng.Intn(len(u.size))
		u.flows[j][k] = !u.flows[j][k]
	case 1:
		u.size[j] = 4 + rng.Intn(16)
	case 2:
		u.write[j] = 1 + rng.Intn(20)
	case 3:
		u.local[j] = !u.local[j]
	}
}

func (u *aliasUnit) render() string {
	var sb strings.Builder
	for k := range u.size {
		fmt.Fprintf(&sb, "char *g%d;\n", k)
	}
	for j := range u.size {
		fmt.Fprintf(&sb, "\nvoid work%d(void) {\n    char buf%d[%d];\n", j, j, u.size[j])
		if u.local[j] {
			fmt.Fprintf(&sb, "    int extra%d = 0;\n", j)
		}
		for k, on := range u.flows[j] {
			if on {
				fmt.Fprintf(&sb, "    g%d = buf%d;\n", k, j)
			}
		}
		fmt.Fprintf(&sb, "    memset(buf%d, 0, %d);\n}\n", j, u.write[j])
		fmt.Fprintf(&sb, "\nvoid read%d(void) {\n    strcpy(g%d, \"0123456789\");\n}\n", j, j)
	}
	return sb.String()
}

// carrySource has a global pointer that edited's local buf may flow
// into; reader's alias fingerprint renders gp's points-to set, so it
// changes whenever buf joins that set or changes size.
const carrySource = `
char *gp;

void edited(void) {
    char buf[8];
    memset(buf, 0, 4);
}

void reader(void) {
    strcpy(gp, "0123456789");
}

void other(void) {
    char c[4];
    strcpy(c, "toolong");
}
`

// TestCarriedHashesFallBack pins each condition under which an in-body
// edit may not inherit its predecessor's local hashes: the edit takes
// the function parse but computes every function's local hash, and
// stays equivalent to a fresh run. A digit edit that changes none of
// them, the control, computes one.
func TestCarriedHashesFallBack(t *testing.T) {
	const pointsTo = "gp = buf;\n    "
	cases := []struct {
		name, src string
		// edit replaces from, the first occurrence in src, with to.
		from, to string
		full     bool
	}{
		// Control: same constraints, same symbols.
		{"digit", carrySource, "0, 4", "0, 5", false},
		// The constraint system changes: gp now points to buf.
		{"pointer assignment", carrySource, "memset(buf", pointsTo + "memset(buf", true},
		// Same constraints, but the buffer gp points to has another size.
		{"array resized", strings.Replace(carrySource, "memset(buf", pointsTo+"memset(buf", 1), "buf[8]", "buf[16]", true},
		// A local variable adds a points-to node and renumbers every
		// later symbol.
		{"local added", carrySource, "memset(buf", "int extra = 0;\n    memset(buf", true},
		// A local type name adds no points-to node but renumbers every
		// later symbol: only the symbol count tells.
		{"local type added", carrySource, "memset(buf", "typedef int extra_t;\n    memset(buf", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := open(t, c.src)
			at := ctoken.Pos(strings.Index(s.Text(), c.from))
			n := localHashesOf(t, s, edit.Replace(ctoken.Extent{Pos: at, End: at + ctoken.Pos(len(c.from))}, c.to))
			want := int64(1)
			if c.full {
				want = int64(len(s.snap.Unit().Funcs))
			}
			requireFreshHashes(t, s, c.name)
			if n != want {
				t.Fatalf("edit computed %d local hashes, want %d", n, want)
			}
			requireEquivalent(t, s)
		})
	}
}

// TestBenchShapedEditWalksOneBody pins the whole-unit work of the edit
// the session benchmark makes: the call graph, the may-modify facts and
// the alias fingerprints walk the edited body alone, and one local hash
// is computed.
func TestBenchShapedEditWalksOneBody(t *testing.T) {
	if testing.Short() {
		t.Skip("opens the 100 KB libtiff session unit")
	}
	e := newBenchEditor(t, 3)
	s, _ := open(t, e.text)
	walks := analysis.BodyWalks()
	if n := localHashesOf(t, s, e.next()); n != 1 {
		t.Fatalf("edit computed %d local hashes, want 1", n)
	}
	if n := analysis.BodyWalks() - walks; n != 1 {
		t.Fatalf("edit walked %d bodies, want 1", n)
	}
	requireEquivalent(t, s)
}

// TestEditDropsPredecessorFacts: the snapshot an edit commits keeps
// nothing of its predecessor once the edit returns, so a long session
// holds one points-to graph, not a chain of them. The predecessor's
// graph, which a function parse inherits to compare against, is
// collected after the next edit.
func TestEditDropsPredecessorFacts(t *testing.T) {
	s, _ := open(t, carrySource)
	at := ctoken.Pos(strings.Index(s.Text(), "0, 4") + len("0, "))
	if n := localHashesOf(t, s, edit.Replace(ctoken.Extent{Pos: at, End: at + 1}, "5")); n != 1 {
		t.Fatalf("first edit computed %d local hashes, want 1", n)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(s.snap.PointsTo(), func(*pointsto.Graph) { close(collected) })
	if n := localHashesOf(t, s, edit.Replace(ctoken.Extent{Pos: at, End: at + 1}, "6")); n != 1 {
		t.Fatalf("second edit computed %d local hashes, want 1 (it inherits the first edit's)", n)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			requireEquivalent(t, s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the predecessor's points-to graph is still reachable after the edit")
}
