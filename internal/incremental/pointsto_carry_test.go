package incremental

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/pointsto"
)

// requirePointsToMatchFresh checks that the committed snapshot's
// points-to sets and alias classes are, symbol by symbol ID, those of a
// whole parse of its text, and that every symbol its graph and alias
// sets name is one of its own unit's.
func requirePointsToMatchFresh(t *testing.T, s *Session, what string) {
	t.Helper()
	fresh, err := analysis.Parse(s.name, s.Text())
	if err != nil {
		t.Fatalf("%s: fresh parse: %v", what, err)
	}
	unit := s.snap.Unit()
	own := func(sym *cast.Symbol) {
		if sym != nil && (sym.ID >= len(unit.Symbols) || unit.Symbols[sym.ID] != sym) {
			t.Fatalf("%s: the graph names symbol %s#%d, which is not the unit's", what, sym.Name, sym.ID)
		}
	}
	pt, aliases := s.snap.PointsTo(), s.snap.Aliases()
	for _, n := range pt.Nodes {
		own(n.Sym)
	}
	freshUnit, freshPT, freshAliases := fresh.Unit(), fresh.PointsTo(), fresh.Aliases()
	if len(freshUnit.Symbols) != len(unit.Symbols) {
		t.Fatalf("%s: %d symbols, a whole parse gives %d", what, len(unit.Symbols), len(freshUnit.Symbols))
	}
	ids := func(syms []*cast.Symbol) []int {
		out := make([]int, len(syms))
		for i, sym := range syms {
			own(sym)
			out[i] = sym.ID
		}
		return out
	}
	freshIDs := func(syms []*cast.Symbol) []int {
		out := make([]int, len(syms))
		for i, sym := range syms {
			out[i] = sym.ID
		}
		return out
	}
	objects := func(nodes []*pointsto.Node) []string {
		out := make([]string, len(nodes))
		for i, n := range nodes {
			id := -1
			if n.Sym != nil {
				id = n.Sym.ID
			}
			out[i] = fmt.Sprintf("%d:%d:%d:%s", n.ID, n.Kind, id, n.Field)
		}
		return out
	}
	for i, sym := range unit.Symbols {
		was := freshUnit.Symbols[i]
		if got, want := objects(pt.PointsTo(sym)), objects(freshPT.PointsTo(was)); !slices.Equal(got, want) {
			t.Fatalf("%s: %s points to %v, a whole parse gives %v", what, sym.Name, got, want)
		}
		if got, want := ids(aliases.AliasSetOf(sym)), freshIDs(freshAliases.AliasSetOf(was)); !slices.Equal(got, want) {
			t.Fatalf("%s: %s aliases %v, a whole parse gives %v", what, sym.Name, got, want)
		}
		if got, want := ids(aliases.PointeesOf(sym)), freshIDs(freshAliases.PointeesOf(was)); !slices.Equal(got, want) {
			t.Fatalf("%s: %s has pointees %v, a whole parse gives %v", what, sym.Name, got, want)
		}
	}
}

// TestCarriedPointsToMatchesFresh: after every edit of a randomized
// script over SAMATE and int-corpus programs, of the alias script, and
// of session workload edits on the libtiff session unit, the committed
// snapshot's points-to sets and alias classes equal a whole parse's by
// symbol ID and name only its own unit's symbols, whether the edit
// carried the predecessor's solution or solved afresh.
func TestCarriedPointsToMatchesFresh(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20261019))
	carried := 0
	note := func(before int64) {
		if pointsto.Solves() == before {
			carried++
		}
	}
	for _, p := range corpus(2) {
		s, _, err := Open(ctx, p.ID+".c", p.Source, Config{})
		if err != nil {
			t.Fatalf("%s: Open: %v", p.ID, err)
		}
		for e := 0; e < 8; e++ {
			before := pointsto.Solves()
			if _, err := s.Edit(ctx, randomDelta(rng, s.Text())); err != nil {
				continue
			}
			note(before)
			requirePointsToMatchFresh(t, s, p.ID)
		}
	}

	u := newAliasUnit(4)
	s, _ := open(t, u.render())
	for i := 0; i < 40; i++ {
		old := s.Text()
		u.mutate(rng)
		before := pointsto.Solves()
		if _, err := s.Edit(ctx, []edit.Delta{edit.Replace(ctoken.Extent{End: ctoken.Pos(len(old))}, u.render())}); err != nil {
			t.Fatalf("alias script edit %d: %v", i, err)
		}
		note(before)
		requirePointsToMatchFresh(t, s, fmt.Sprintf("alias script edit %d", i))
	}
	t.Logf("%d edits carried the predecessor's points-to solution", carried)
	if carried == 0 {
		t.Fatal("no edit carried the predecessor's solution; the scripts missed the carried path")
	}

	if testing.Short() {
		return
	}
	e := newBenchEditor(t, 5)
	s, _ = open(t, e.text)
	for i := 0; i < 10; i++ {
		before := pointsto.Solves()
		if _, err := s.Edit(ctx, []edit.Delta{e.next()}); err != nil {
			t.Fatalf("workload edit %d: %v", i, err)
		}
		if n := pointsto.Solves() - before; n != 0 {
			t.Fatalf("workload edit %d solved %d systems, want 0", i, n)
		}
		requirePointsToMatchFresh(t, s, fmt.Sprintf("workload edit %d", i))
	}
}

// editCosts is the whole-unit work one edit did.
type editCosts struct {
	solves, aliases, bodies, closed int64
}

// costsOf applies deltas, which must take the function parse, and
// returns the work they cost.
func costsOf(t *testing.T, s *Session, deltas ...edit.Delta) editCosts {
	t.Helper()
	before := editCosts{pointsto.Solves(), pointsto.AliasComputations(), pointsto.BodiesGenerated(), analysis.ClosedHashes()}
	if path, err := editPath(t, s, deltas...); err != nil || path != funcParse {
		t.Fatalf("edit took a %s, %v; want a function parse", path, err)
	}
	return editCosts{pointsto.Solves() - before.solves, pointsto.AliasComputations() - before.aliases,
		pointsto.BodiesGenerated() - before.bodies, analysis.ClosedHashes() - before.closed}
}

// TestEditCosts pins the points-to and closure work of an in-body edit.
// A bench-shaped edit, one number in one uncalled function, solves
// nothing, computes no alias sets, regenerates one body and closes one
// hash. A pointer assignment changes the constraint system and takes
// the whole generation, solve and closure.
func TestEditCosts(t *testing.T) {
	if !testing.Short() {
		e := newBenchEditor(t, 9)
		s, _ := open(t, e.text)
		for i := 0; i < 3; i++ {
			if got, want := costsOf(t, s, e.next()), (editCosts{0, 0, 1, 1}); got != want {
				t.Fatalf("workload edit %d cost %+v, want %+v", i, got, want)
			}
		}
		requireEquivalent(t, s)
	}

	s, _ := open(t, carrySource)
	funcs := int64(len(s.snap.Unit().Funcs))
	at := ctoken.Pos(strings.Index(s.Text(), "0, 4") + len("0, "))
	if got, want := costsOf(t, s, edit.Replace(ctoken.Extent{Pos: at, End: at + 1}, "5")), (editCosts{0, 0, 1, 1}); got != want {
		t.Fatalf("digit edit cost %+v, want %+v", got, want)
	}
	at = ctoken.Pos(strings.Index(s.Text(), "memset(buf"))
	got := costsOf(t, s, edit.Insert(at, "gp = buf;\n    "))
	// The regenerated body is compared first, then the whole unit is
	// generated again; reader reads gp, so its closed hash changes too.
	if want := (editCosts{1, 1, 1 + funcs, funcs}); got != want {
		t.Fatalf("pointer assignment cost %+v, want %+v", got, want)
	}
	requireEquivalent(t, s)
	requirePointsToMatchFresh(t, s, "pointer assignment")
}
