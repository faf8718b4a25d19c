package overflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/fault"
	"repro/internal/interval"
)

// ArgSeed is one call argument's abstract value at an external call
// site, serialized for cross-translation-unit transport. A caller does
// not know the callee's parameter types, so both the pointer-shaped and
// the integer evaluation travel; the defining TU binds whichever matches
// the parameter. Zero-value fields mean "nothing known".
type ArgSeed struct {
	// HasPtr marks a non-top pointer evaluation: Size/Off/Strl describe
	// the pointed-to object (allocation size, pointer offset, first-NUL
	// index) and Reg its storage region (the region enum's numeric
	// value).
	HasPtr bool              `json:"has_ptr,omitempty"`
	Size   interval.Interval `json:"size,omitempty"`
	Off    interval.Interval `json:"off,omitempty"`
	Strl   interval.Interval `json:"strl,omitempty"`
	Reg    uint8             `json:"reg,omitempty"`
	// HasInt marks a non-top integer evaluation of the argument.
	HasInt bool              `json:"has_int,omitempty"`
	Val    interval.Interval `json:"val,omitempty"`
}

// CallSeed describes one call to a function the current TU does not
// define: who called, what they called, and what the caller's interval
// state proves about each argument. The project linker routes these to
// the TU that defines Callee, where they seed interprocedural contexts
// exactly like a local call edge would (the paper's context seeding,
// extended across file boundaries).
type CallSeed struct {
	Caller string    `json:"caller"`
	Callee string    `json:"callee"`
	Args   []ArgSeed `json:"args,omitempty"`
}

// ExternalCalls evaluates every call to an undefined callee under the
// caller's pass-1 (empty-seed) interval solution and returns the
// resulting seeds. Calls proving nothing about any argument are
// omitted. The result is deterministic: function order follows the
// translation unit, call order the call graph's edge order.
func (a *Analyzer) ExternalCalls() []CallSeed {
	a.ensure()
	var out []CallSeed
	for _, fn := range a.unit.Funcs {
		fault.CheckCtx(a.opts.Limits.Ctx)
		g, sol, _ := a.eng.solve(fn, nil)
		for _, e := range a.eng.cg.CallsFrom(fn.Name) {
			if e.Callee != nil {
				continue
			}
			n := g.NodeContaining(e.Call)
			if n == nil || !sol.Reached[n.ID] {
				continue
			}
			st := sol.In[n.ID]
			cs := CallSeed{Caller: fn.Name, Callee: e.CalleeName}
			interesting := false
			for _, arg := range e.Call.Args {
				var as ArgSeed
				if vs, ok := evalPtr(st, arg); ok && !vs.IsTop() {
					as.HasPtr = true
					as.Size, as.Off, as.Strl, as.Reg = vs.size, vs.off, vs.strl, uint8(vs.reg)
					interesting = true
				}
				if iv := evalInt(st, arg); !iv.IsTop() {
					as.HasInt = true
					as.Val = iv
					interesting = true
				}
				cs.Args = append(cs.Args, as)
			}
			if interesting {
				out = append(out, cs)
			}
		}
	}
	return out
}

// bindSeed maps transported argument seeds onto the callee's parameter
// symbols by position, keeping only the evaluation that matches the
// parameter's type.
func bindSeed(fn *cast.FuncDef, args []ArgSeed) map[int]varState {
	seed := make(map[int]varState)
	for i, p := range fn.Params {
		if p.Sym == nil || i >= len(args) {
			break
		}
		as := args[i]
		switch {
		case isPtrVar(p.Sym) && as.HasPtr:
			vs := topVar()
			vs.size, vs.off, vs.strl, vs.reg = as.Size, as.Off, as.Strl, region(as.Reg)
			seed[p.Sym.ID] = vs
		case IsIntVar(p.Sym) && as.HasInt:
			vs := topVar()
			vs.val = as.Val
			seed[p.Sym.ID] = vs
		}
	}
	return seed
}

// externChainLabel tags cross-TU callers in context chains, so reports
// read "main [extern] -> vuln" and propagation never confuses an external
// caller with a same-named local function.
func externChainLabel(caller string) string { return caller + " [extern]" }

// seedFindings runs the externally seeded contexts (project mode): each
// CallSeed whose callee this TU defines becomes an interprocedural
// context rooted at that function, checked and propagated exactly like
// a pass-2 context.
func (a *Analyzer) seedFindings() []Finding {
	if len(a.opts.ExternSeeds) == 0 || a.opts.ContextDepth <= 0 {
		return nil
	}
	seeds := append([]CallSeed(nil), a.opts.ExternSeeds...)
	sort.SliceStable(seeds, func(i, j int) bool {
		if seeds[i].Callee != seeds[j].Callee {
			return seeds[i].Callee < seeds[j].Callee
		}
		return seeds[i].Caller < seeds[j].Caller
	})
	byName := make(map[string]*cast.FuncDef, len(a.unit.Funcs))
	for _, fn := range a.unit.Funcs {
		byName[fn.Name] = fn
	}
	var out []Finding
	for _, cs := range seeds {
		fn := byName[cs.Callee]
		if fn == nil {
			continue
		}
		seed := bindSeed(fn, cs.Args)
		if len(seed) == 0 {
			continue
		}
		chain := []string{externChainLabel(cs.Caller), fn.Name}
		out = append(out, a.eng.propagate(fn, seed, chain, a.opts.ContextDepth-1)...)
	}
	return out
}

// SeedFingerprint renders a seed list into a stable key fragment for
// cache fingerprints and memo signatures. Empty input yields "".
func SeedFingerprint(seeds []CallSeed) string {
	if len(seeds) == 0 {
		return ""
	}
	lines := make([]string, 0, len(seeds))
	for _, cs := range seeds {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s>%s", cs.Caller, cs.Callee)
		for _, as := range cs.Args {
			fmt.Fprintf(&sb, "|%t,%d,%d,%d,%d,%d,%d,%d,%t,%d,%d",
				as.HasPtr, as.Size.Lo, as.Size.Hi, as.Off.Lo, as.Off.Hi,
				as.Strl.Lo, as.Strl.Hi, as.Reg, as.HasInt, as.Val.Lo, as.Val.Hi)
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:8])
}
