package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/fault"
)

// Problem describes a forward dataflow problem over an arbitrary lattice T.
// It has three clients, which share the one worklist solver: reaching
// definitions over bitsets (Algorithm 1's input, this package), the
// buffer-size interval analysis of internal/overflow, and the integer
// oracle of internal/intflow. The paper's base analyses (Section III-A)
// all fit this shape.
type Problem[T any] interface {
	// Bottom is the "no information / unreached" element. It is the
	// initial state of every node except the entry.
	Bottom() T
	// Entry is the state flowing into the function entry node (parameter
	// bindings, globals).
	Entry() T
	// Join combines states at control-flow merges. It must be monotone
	// and may reuse/mutate neither argument.
	Join(a, b T) T
	// Widen extrapolates at loop heads: given the previous and the newly
	// joined in-state it must return an upper bound of both, and repeated
	// widening must stabilize in finite time. Problems on finite-height
	// lattices can simply return the join.
	Widen(prev, next T) T
	// Equal reports lattice-element equality; the solver iterates until a
	// fixpoint under Equal.
	Equal(a, b T) bool
	// Transfer computes the out-state of node n from its in-state.
	Transfer(n *cfg.Node, in T) T
	// FlowEdge adapts an out-state while it flows along the specific CFG
	// edge from → to. Path-insensitive problems return the state
	// unchanged; the interval analysis refines it using branch-condition
	// labels (cfg.Node.TrueSuccs).
	FlowEdge(from, to *cfg.Node, state T) T
}

// Solution holds the solved states of a forward lattice problem.
type Solution[T any] struct {
	// In and Out are indexed by CFG node ID.
	In, Out []T
	// Reached marks nodes with at least one executed predecessor path;
	// unreached nodes hold Bottom.
	Reached []bool
	// Degraded marks a solve cut short by an exhausted step budget. The
	// recorded states are a valid under-approximation of the fixpoint
	// (some nodes may still hold Bottom); clients must not treat the
	// absence of facts in a degraded solution as proof of absence.
	Degraded bool
	// Steps counts the worklist iterations the solve consumed (the
	// meter's count), the effort figure stage spans report.
	Steps int
}

// SolveForwardLimits runs the worklist algorithm for p over g, applying
// Widen at loop heads (back-edge targets). The traversal order is reverse
// postorder, which reaches the fixpoint in near-minimal passes on
// reducible graphs. Only nodes reachable from the entry are visited. The
// context in lim is polled at every worklist iteration (cancellation
// aborts via the fault sentinel), and an exhausted step budget stops the
// solve early with Solution.Degraded set.
func SolveForwardLimits[T any](g *cfg.Graph, p Problem[T], lim fault.Limits) *Solution[T] {
	n := len(g.Nodes)
	sol := &Solution[T]{
		In:      make([]T, n),
		Out:     make([]T, n),
		Reached: make([]bool, n),
	}
	for i := 0; i < n; i++ {
		sol.In[i] = p.Bottom()
		sol.Out[i] = p.Bottom()
	}

	order := postorder(g)
	rpoIndex := make([]int, n)
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	// Reverse postorder position of each node.
	for i, id := range order {
		rpoIndex[id] = len(order) - 1 - i
	}
	heads := loopHeads(g)

	// Worklist ordered by RPO position (a simple priority bucket keeps the
	// implementation dependency-free; graphs here are function-sized).
	inWork := make([]bool, n)
	work := make([]int, 0, n)
	push := func(id int) {
		if !inWork[id] {
			inWork[id] = true
			work = append(work, id)
		}
	}
	pop := func() int {
		best := 0
		for i := 1; i < len(work); i++ {
			if rpoIndex[work[i]] < rpoIndex[work[best]] {
				best = i
			}
		}
		id := work[best]
		work[best] = work[len(work)-1]
		work = work[:len(work)-1]
		inWork[id] = false
		return id
	}

	entry := g.Entry.ID
	sol.In[entry] = p.Entry()
	sol.Reached[entry] = true
	sol.Out[entry] = p.Transfer(g.Entry, sol.In[entry])
	for _, s := range g.Entry.Succs {
		push(s.ID)
	}

	meter := lim.NewMeter()
	for len(work) > 0 {
		if !meter.Step() {
			sol.Degraded = true
			break
		}
		id := pop()
		node := g.Nodes[id]
		if node.Kind == cfg.KindEntry {
			continue
		}

		newIn := p.Bottom()
		reached := false
		for _, pred := range node.Preds {
			if !sol.Reached[pred.ID] {
				continue
			}
			edgeState := p.FlowEdge(pred, node, sol.Out[pred.ID])
			if !reached {
				newIn = edgeState
				reached = true
			} else {
				newIn = p.Join(newIn, edgeState)
			}
		}
		if !reached {
			continue
		}
		if heads[id] && sol.Reached[id] {
			newIn = p.Widen(sol.In[id], newIn)
		}
		if sol.Reached[id] && p.Equal(newIn, sol.In[id]) {
			continue
		}
		sol.Reached[id] = true
		sol.In[id] = newIn
		newOut := p.Transfer(node, newIn)
		if !p.Equal(newOut, sol.Out[id]) {
			sol.Out[id] = newOut
			for _, s := range node.Succs {
				push(s.ID)
			}
		}
	}
	sol.Steps = meter.Steps()
	return sol
}

// postorder returns node IDs in DFS postorder from the entry.
func postorder(g *cfg.Graph) []int {
	seen := make([]bool, len(g.Nodes))
	order := make([]int, 0, len(g.Nodes))
	var walk func(n *cfg.Node)
	walk = func(n *cfg.Node) {
		seen[n.ID] = true
		for _, s := range n.Succs {
			if !seen[s.ID] {
				walk(s)
			}
		}
		order = append(order, n.ID)
	}
	walk(g.Entry)
	return order
}

// loopHeads marks targets of back edges (an edge u→v where v is on the DFS
// stack when u is expanded). Widening is applied only at these nodes.
func loopHeads(g *cfg.Graph) []bool {
	heads := make([]bool, len(g.Nodes))
	color := make([]int, len(g.Nodes)) // 0 white, 1 grey, 2 black
	var walk func(n *cfg.Node)
	walk = func(n *cfg.Node) {
		color[n.ID] = 1
		for _, s := range n.Succs {
			switch color[s.ID] {
			case 0:
				walk(s)
			case 1:
				heads[s.ID] = true
			}
		}
		color[n.ID] = 2
	}
	walk(g.Entry)
	return heads
}
