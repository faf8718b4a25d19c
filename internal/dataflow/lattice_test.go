package dataflow

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/fault"
	"repro/internal/typecheck"
)

// iv is a toy interval lattice over one integer variable, used to exercise
// the generic solver. bot is the unreached element.
type iv struct {
	lo, hi int64
	bot    bool
}

const ivInf = int64(1) << 62

// ivProblem tracks the single local through decls ([0,0]) and increment
// statements ([lo+1,hi+1]). It counts Widen and FlowEdge invocations so
// tests can assert the hooks fire.
type ivProblem struct {
	widenCalls int
	edgeCalls  int
}

func (p *ivProblem) Bottom() iv { return iv{bot: true} }
func (p *ivProblem) Entry() iv  { return iv{lo: 0, hi: 0} }

func (p *ivProblem) Join(a, b iv) iv {
	if a.bot {
		return b
	}
	if b.bot {
		return a
	}
	out := a
	if b.lo < out.lo {
		out.lo = b.lo
	}
	if b.hi > out.hi {
		out.hi = b.hi
	}
	return out
}

func (p *ivProblem) Widen(prev, next iv) iv {
	p.widenCalls++
	if prev.bot {
		return next
	}
	out := p.Join(prev, next)
	if out.lo < prev.lo {
		out.lo = -ivInf
	}
	if out.hi > prev.hi {
		out.hi = ivInf
	}
	return out
}

func (p *ivProblem) Equal(a, b iv) bool { return a == b }

func (p *ivProblem) Transfer(n *cfg.Node, in iv) iv {
	if in.bot {
		return in
	}
	switch n.Kind {
	case cfg.KindDecl:
		return iv{lo: 0, hi: 0}
	case cfg.KindStmt:
		// The only statements in the fixtures are "i = i + 1;".
		out := in
		if out.lo > -ivInf {
			out.lo++
		}
		if out.hi < ivInf {
			out.hi++
		}
		return out
	}
	return in
}

func (p *ivProblem) FlowEdge(from, to *cfg.Node, state iv) iv {
	p.edgeCalls++
	return state
}

// buildGraph parses src and returns the CFG of its first function.
func buildGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	tu, err := cparse.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	typecheck.Check(tu)
	return cfg.Build(tu.Funcs[0])
}

// TestSolveForwardWidensAtLoopHead runs the interval problem over a while
// loop. Without widening the increment would ratchet the interval forever;
// the solver must invoke Widen at the loop head and stabilize with an
// infinite upper bound there.
func TestSolveForwardWidensAtLoopHead(t *testing.T) {
	g := buildGraph(t, `
void f(void) {
	int i = 0;
	while (i < 10) {
		i = i + 1;
	}
}
`)
	p := &ivProblem{}
	sol := SolveForwardLimits[iv](g, p, fault.Limits{})

	if p.widenCalls == 0 {
		t.Fatal("Widen hook never invoked on a loop")
	}
	if !sol.Reached[g.Exit.ID] {
		t.Fatal("exit not reached")
	}
	// Find the loop head (the condition node).
	var cond *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.KindCond {
			cond = n
		}
	}
	if cond == nil {
		t.Fatal("no condition node in while-loop CFG")
	}
	in := sol.In[cond.ID]
	if in.bot {
		t.Fatal("loop head unreached")
	}
	if in.lo != 0 {
		t.Fatalf("loop head lo = %d, want 0", in.lo)
	}
	if in.hi != ivInf {
		t.Fatalf("loop head hi = %d, want widened to +inf (%d)", in.hi, ivInf)
	}
}

// TestSolveForwardJoinsAtMerge checks the branch merge: one arm increments,
// the other does not, so the state after the if must be the join [0,1].
// Widen must never fire on acyclic code.
func TestSolveForwardJoinsAtMerge(t *testing.T) {
	g := buildGraph(t, `
void f(void) {
	int i = 0;
	if (i < 5) {
		i = i + 1;
	}
}
`)
	p := &ivProblem{}
	sol := SolveForwardLimits[iv](g, p, fault.Limits{})

	if p.widenCalls != 0 {
		t.Fatalf("Widen fired %d times on acyclic code", p.widenCalls)
	}
	if p.edgeCalls == 0 {
		t.Fatal("FlowEdge hook never invoked")
	}
	got := sol.In[g.Exit.ID]
	if got.bot {
		t.Fatal("exit unreached")
	}
	if got.lo != 0 || got.hi != 1 {
		t.Fatalf("exit state = [%d,%d], want [0,1]", got.lo, got.hi)
	}
}
