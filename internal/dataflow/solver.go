package dataflow

import (
	"repro/internal/cfg"
	"repro/internal/fault"
)

// ForwardMetered solves a forward may-dataflow problem (union-meet,
// gen/kill transfer) over the CFG with the traditional worklist
// algorithm the paper's Section III-A prescribes. nBits is the
// fact-universe size; gen/kill give each node's transfer function. It
// returns the IN set of every node (indexed by node ID) and steps, the
// number of worklist iterations consumed (fault.Meter's count), which
// the observability layer attaches to the reaching-definitions stage
// span.
//
// The context in lim is polled at every worklist iteration
// (cancellation aborts via the fault sentinel), and when the step budget
// is exhausted the solver degrades to the conservative top — every fact
// reaches every node — and reports degraded=true. For a may-analysis,
// all-ones IN sets are always a sound (if imprecise) answer.
func ForwardMetered(g *cfg.Graph, nBits int, gen, kill func(nodeID int) BitSet, lim fault.Limits) (in []BitSet, degraded bool, steps int) {
	n := len(g.Nodes)
	in = make([]BitSet, n)
	out := make([]BitSet, n)
	for i := 0; i < n; i++ {
		in[i] = NewBitSet(nBits)
		out[i] = NewBitSet(nBits)
	}

	work := make([]*cfg.Node, 0, n)
	inWork := make([]bool, n)
	for _, node := range g.Nodes {
		work = append(work, node)
		inWork[node.ID] = true
	}
	meter := lim.NewMeter()
	for len(work) > 0 {
		if !meter.Step() {
			// Budget exhausted: degrade to the conservative top.
			for i := 0; i < n; i++ {
				in[i].SetFirstN(nBits)
			}
			return in, true, meter.Steps()
		}
		node := work[0]
		work = work[1:]
		inWork[node.ID] = false

		for _, p := range node.Preds {
			in[node.ID].UnionWith(out[p.ID])
		}
		newOut := in[node.ID].Clone()
		newOut.DiffWith(kill(node.ID))
		newOut.UnionWith(gen(node.ID))
		if !newOut.Equal(out[node.ID]) {
			out[node.ID].CopyFrom(newOut)
			for _, s := range node.Succs {
				if !inWork[s.ID] {
					work = append(work, s)
					inWork[s.ID] = true
				}
			}
		}
	}
	return in, false, meter.Steps()
}
