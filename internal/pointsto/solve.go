package pointsto

import (
	"slices"
	"sync/atomic"

	"repro/internal/cast"
	"repro/internal/dataflow"
	"repro/internal/fault"
)

// Options configures the solver.
type Options struct {
	// DisableCycleElimination skips the offline SCC collapse (Hardekopf's
	// optimization); used by the ablation benchmarks to quantify its
	// effect. The fixpoint is identical either way.
	DisableCycleElimination bool
	// FieldSensitive gives each struct member of a named record variable
	// its own points-to node instead of collapsing the struct into one
	// aggregate node. The paper deliberately keeps the aggregate model
	// ("our alias analysis can be made more precise, but that adds to the
	// runtime overhead", Section IV-B); this option exists for the
	// precision ablation (DESIGN.md Section 6).
	FieldSensitive bool
	// Limits bounds the solve (DESIGN.md Section 9): the context is
	// polled at iteration boundaries, and an exhausted step budget
	// degrades the graph to the conservative top — every node may point
	// to every object — with Stats.Degraded set. The zero value imposes
	// nothing.
	Limits fault.Limits
}

// Work counters, process-wide, so tests can pin how much of the
// analysis an edit redoes.
var solves, bodiesGenerated, aliasComputations atomic.Int64

// Solves returns the number of constraint systems solved since process
// start.
func Solves() int64 { return solves.Load() }

// BodiesGenerated returns the number of function bodies whose
// constraints were generated since process start.
func BodiesGenerated() int64 { return bodiesGenerated.Load() }

// AliasComputations returns the number of ComputeAliases runs since
// process start.
func AliasComputations() int64 { return aliasComputations.Load() }

// Analyze generates constraints from the unit and solves them.
func Analyze(unit *cast.TranslationUnit, opts Options) *Graph {
	g := newGraph()
	g.fieldSensitive = opts.FieldSensitive
	g.cycles = !opts.DisableCycleElimination
	g.generate(unit)
	g.solve(opts)
	return g
}

// Reanalyze returns the points-to graph of unit, which must be the unit
// prev was generated from with only the body of unit.Funcs[fi] changed
// and every symbol keeping its ID. It regenerates that body alone,
// against prev's nodes below the body's first: the lookups the body
// made when prev was generated. When the body yields prev's nodes and
// constraints, the whole system is prev's, and the graph shares prev's
// constraints and solution (carried is set); only the body's nodes are
// new, so every node names unit's own symbols and sites. Otherwise the
// graph is Analyze's.
func Reanalyze(prev *Graph, unit *cast.TranslationUnit, fi int, opts Options) (g *Graph, carried bool) {
	if g := prev.carry(unit, fi, opts); g != nil {
		return g, true
	}
	return Analyze(unit, opts), false
}

// carry is Reanalyze's carried graph, or nil when prev's solution may
// not hold for unit.
func (prev *Graph) carry(unit *cast.TranslationUnit, fi int, opts Options) *Graph {
	if !prev.solved || prev.Stats.Degraded || prev.fieldSensitive != opts.FieldSensitive ||
		prev.cycles == opts.DisableCycleElimination || len(prev.bodies) != len(unit.Funcs) {
		return nil
	}
	r := prev.bodies[fi]
	body := &Graph{
		system: &system{varNode: make(map[int]int), fieldNode: make(map[fieldKey]int), fieldSensitive: opts.FieldSensitive},
		base:   r.nodeLo,
		prior:  prev.system,
	}
	body.genBody(unit.Funcs[fi])
	if !slices.Equal(body.constraints, prev.constraints[r.consLo:r.consHi]) ||
		!sameNodes(body.Nodes, prev.Nodes[r.nodeLo:r.nodeHi]) {
		return nil
	}
	nodes := slices.Clone(prev.Nodes)
	copy(nodes[r.nodeLo:], body.Nodes)
	return &Graph{Nodes: nodes, system: prev.system, Stats: prev.Stats}
}

// solve runs constraint solving to a fixpoint.
func (g *Graph) solve(opts Options) {
	solves.Add(1)
	n := len(g.Nodes)
	g.pts = make([]dataflow.BitSet, n)
	g.rep = make([]int, n)
	for i := 0; i < n; i++ {
		g.pts[i] = dataflow.NewBitSet(n)
		g.rep[i] = i
	}

	succs := make([]map[int]struct{}, n)
	for i := range succs {
		succs[i] = make(map[int]struct{})
	}
	// loadsBySrc[p] = {d}: d = *p; storesByDst[p] = {s}: *p = s.
	loadsBySrc := make(map[int][]int)
	storesByDst := make(map[int][]int)

	for _, c := range g.constraints {
		switch c.kind {
		case addrOf:
			g.pts[c.dst].Set(c.src)
		case copyC:
			if c.src != c.dst {
				succs[c.src][c.dst] = struct{}{}
			}
		case load:
			loadsBySrc[c.src] = append(loadsBySrc[c.src], c.dst)
		case store:
			storesByDst[c.dst] = append(storesByDst[c.dst], c.src)
		}
	}

	// Offline cycle elimination on the initial copy graph (Hardekopf's
	// key optimization): nodes in a copy cycle share one points-to set.
	if !opts.DisableCycleElimination {
		g.collapseCycles(succs)
	}

	g.solveSequential(succs, loadsBySrc, storesByDst, opts.Limits)
	// Point every node at its representative, so queries read rep
	// without writing it and a solved graph is safe to share.
	for i := range g.rep {
		g.rep[i] = g.find(i)
	}
}

// degradeToTop widens every representative's points-to set to the full
// object universe — the conservative answer when the solve could not
// finish within its budget. Alias queries then report everything
// aliased, which only makes downstream clients more careful.
func (g *Graph) degradeToTop() {
	n := len(g.Nodes)
	for i := 0; i < n; i++ {
		if g.find(i) == i {
			g.pts[i].SetFirstN(n)
		}
	}
	g.Stats.Degraded = true
	g.solved = true
}

// collapseCycles runs Tarjan's SCC over the copy edges and merges each
// multi-node component into its representative.
func (g *Graph) collapseCycles(succs []map[int]struct{}) {
	n := len(g.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack   []int
		counter int
	)
	// Iterative Tarjan to avoid deep recursion on long copy chains.
	type frame struct {
		v    int
		iter []int
		pos  int
	}
	neighbors := func(v int) []int {
		out := make([]int, 0, len(succs[v]))
		for s := range succs[v] {
			out = append(out, s)
		}
		return out
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{v: start, iter: neighbors(start)}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.pos < len(f.iter) {
				w := f.iter[f.pos]
				f.pos++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, iter: neighbors(w)})
				} else if onStack[w] {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
				}
				continue
			}
			// Pop.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				// Root of an SCC: pop members.
				var members []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					members = append(members, w)
					if w == v {
						break
					}
				}
				if len(members) > 1 {
					g.Stats.CyclesCollapsed++
					root := members[0]
					for _, m := range members[1:] {
						g.merge(root, m, succs)
					}
				}
			}
		}
	}
}

// merge unions node b into node a (both must be current representatives).
func (g *Graph) merge(a, b int, succs []map[int]struct{}) {
	a, b = g.find(a), g.find(b)
	if a == b {
		return
	}
	g.rep[b] = a
	g.pts[a].UnionWith(g.pts[b])
	for s := range succs[b] {
		if g.find(s) != a {
			succs[a][s] = struct{}{}
		}
	}
	succs[b] = nil
}

// solveSequential is the classic worklist propagation.
func (g *Graph) solveSequential(succs []map[int]struct{}, loadsBySrc, storesByDst map[int][]int, lim fault.Limits) {
	work := make([]int, 0, len(g.Nodes))
	inWork := make([]bool, len(g.Nodes))
	push := func(i int) {
		i = g.find(i)
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}
	for i := range g.Nodes {
		if g.find(i) == i && g.pts[i].Count() > 0 {
			push(i)
		}
	}
	addEdge := func(from, to int) bool {
		from, to = g.find(from), g.find(to)
		if from == to {
			return false
		}
		if _, ok := succs[from][to]; ok {
			return false
		}
		succs[from][to] = struct{}{}
		return true
	}

	meter := lim.NewMeter()
	for len(work) > 0 {
		if !meter.Step() {
			g.degradeToTop()
			return
		}
		g.Stats.Iterations++
		v := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[v] = false
		v = g.find(v)

		// Complex constraints: loads with src v and stores with dst v
		// materialize new copy edges for each pointee.
		var newEdges [][2]int
		g.pts[v].ForEach(func(pointee int) {
			for _, d := range loadsBySrc[v] {
				newEdges = append(newEdges, [2]int{pointee, d})
			}
			for _, s := range storesByDst[v] {
				newEdges = append(newEdges, [2]int{s, pointee})
			}
		})
		for _, e := range newEdges {
			if addEdge(e[0], e[1]) {
				push(e[0])
			}
		}

		// Propagate along copy edges.
		for sRaw := range succs[v] {
			s := g.find(sRaw)
			if s == v {
				continue
			}
			if g.pts[s].UnionWith(g.pts[v]) {
				push(s)
			}
		}
	}
	g.solved = true
}
