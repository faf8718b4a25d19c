// Package interproc implements the interprocedural may-modify analysis
// that guards SAFE TYPE REPLACEMENT (Section III-C): when a char pointer is
// used as an argument to a user-defined function, STR must determine, at
// the call site, whether the callee may modify the pointed-to buffer. The
// analysis is conservative — it may report a modification where none
// occurs, but never the reverse — because an unsound answer would let STR
// change program behavior.
package interproc

import (
	"repro/internal/callgraph"
	"repro/internal/cast"
)

// _libraryWriters maps C library functions to the argument positions
// (0-based) through which they write.
var _libraryWriters = map[string][]int{
	"strcpy":     {0},
	"strncpy":    {0},
	"strcat":     {0},
	"strncat":    {0},
	"sprintf":    {0},
	"snprintf":   {0},
	"vsprintf":   {0},
	"vsnprintf":  {0},
	"memcpy":     {0},
	"memmove":    {0},
	"memset":     {0},
	"gets":       {0},
	"fgets":      {0},
	"scanf":      {1, 2, 3, 4, 5, 6, 7},
	"fread":      {0},
	"realloc":    {0},
	"g_strlcpy":  {0},
	"g_strlcat":  {0},
	"g_snprintf": {0},
	"gets_s":     {0},
}

// _libraryReadOnly lists C library functions that never write through any
// char* argument.
var _libraryReadOnly = map[string]struct{}{
	"strlen": {}, "strcmp": {}, "strncmp": {}, "strchr": {}, "strrchr": {},
	"strstr": {}, "printf": {}, "fprintf": {}, "puts": {}, "atoi": {},
	"atol": {}, "strdup": {}, "free": {}, "fopen": {}, "memcmp": {},
	"fwrite": {}, "putchar": {}, "fclose": {}, "exit": {}, "abort": {},
}

// LibraryWritesThrough reports whether the named C library function writes
// through its idx-th argument.
func LibraryWritesThrough(name string, idx int) bool {
	for _, w := range _libraryWriters[name] {
		if w == idx {
			return true
		}
	}
	return false
}

// IsKnownLibrary reports whether name is a modeled C library function
// (either a writer or read-only).
func IsKnownLibrary(name string) bool {
	if _, ok := _libraryWriters[name]; ok {
		return true
	}
	_, ok := _libraryReadOnly[name]
	return ok
}

// Result holds per-function, per-parameter may-modify facts.
type Result struct {
	unit *cast.TranslationUnit
	cg   *callgraph.Graph
	// mods[funcName][paramIdx] reports that the function may write through
	// the parameter.
	mods map[string][]bool
}

// Analyze computes may-modify facts for every defined function in the
// unit, iterating over the unit's call graph cg to a fixpoint. The shared
// facts snapshot (internal/analysis) passes its own graph, so it is built
// once per translation unit.
func Analyze(unit *cast.TranslationUnit, cg *callgraph.Graph) *Result {
	r := &Result{
		unit: unit,
		cg:   cg,
		mods: make(map[string][]bool, len(unit.Funcs)),
	}
	for _, f := range unit.Funcs {
		r.mods[f.Name] = make([]bool, len(f.Params))
	}
	// Fixpoint: the facts grow monotonically (false -> true), so iterate
	// until no change.
	for changed := true; changed; {
		changed = false
		for _, f := range unit.Funcs {
			if r.scanFunc(f) {
				changed = true
			}
		}
	}
	return r
}

// MayModifyParam reports whether the defined function may write through
// its idx-th parameter. Unknown functions are reported as modifying —
// the conservative answer.
func (r *Result) MayModifyParam(funcName string, idx int) bool {
	mods, ok := r.mods[funcName]
	if !ok {
		// Not defined in this unit: library functions use the modeled
		// tables; anything else is conservatively a modification.
		if _, ro := _libraryReadOnly[funcName]; ro {
			return false
		}
		if w, isLib := _libraryWriters[funcName]; isLib {
			for _, i := range w {
				if i == idx {
					return true
				}
			}
			return false
		}
		return true
	}
	if idx >= len(mods) {
		// Variadic overflow arguments: conservative.
		return true
	}
	return mods[idx]
}

// MayModifyArg reports whether the call may modify the buffer passed as
// the idx-th argument.
func (r *Result) MayModifyArg(call *cast.CallExpr, idx int) bool {
	name := call.Callee()
	if name == "" {
		return true // call through a function pointer: conservative
	}
	return r.MayModifyParam(name, idx)
}

// scanFunc rescans one function body, returning whether any new
// modification fact was discovered.
func (r *Result) scanFunc(f *cast.FuncDef) bool {
	paramSyms := make(map[*cast.Symbol]int, len(f.Params))
	for i, p := range f.Params {
		if p.Sym != nil {
			paramSyms[p.Sym] = i
		}
	}
	changed := false
	mark := func(idx int) {
		if idx >= 0 && idx < len(r.mods[f.Name]) && !r.mods[f.Name][idx] {
			r.mods[f.Name][idx] = true
			changed = true
		}
	}
	// paramOf resolves an expression to a parameter index when the
	// expression's buffer is (derived from) a parameter.
	var paramOf func(e cast.Expr) int
	paramOf = func(e cast.Expr) int {
		switch x := cast.Unparen(e).(type) {
		case *cast.Ident:
			if x.Sym != nil {
				if idx, ok := paramSyms[x.Sym]; ok {
					return idx
				}
			}
			return -1
		case *cast.BinaryExpr:
			if x.Op == cast.BinaryAdd || x.Op == cast.BinarySub {
				if idx := paramOf(x.X); idx >= 0 {
					return idx
				}
				return paramOf(x.Y)
			}
			return -1
		case *cast.CastExpr:
			return paramOf(x.Operand)
		case *cast.UnaryExpr:
			if x.Op == cast.UnaryAddrOf {
				// &p[i] reduces to p.
				if ix, ok := cast.Unparen(x.Operand).(*cast.IndexExpr); ok {
					return paramOf(ix.Base)
				}
			}
			return -1
		case *cast.IndexExpr:
			return paramOf(x.Base)
		default:
			return -1
		}
	}

	cast.Inspect(f.Body, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.AssignExpr:
			// Writes through the parameter: *p = v, p[i] = v.
			switch lv := cast.Unparen(x.LHS).(type) {
			case *cast.UnaryExpr:
				if lv.Op == cast.UnaryDeref {
					if idx := paramOf(lv.Operand); idx >= 0 {
						mark(idx)
					}
				}
			case *cast.IndexExpr:
				if idx := paramOf(lv.Base); idx >= 0 {
					mark(idx)
				}
			case *cast.MemberExpr:
				if lv.Arrow {
					if idx := paramOf(lv.Base); idx >= 0 {
						mark(idx)
					}
				}
			}
		case *cast.CallExpr:
			name := x.Callee()
			for ai, arg := range x.Args {
				idx := paramOf(arg)
				if idx < 0 {
					continue
				}
				switch {
				case name == "":
					mark(idx) // function pointer: conservative
				case r.isDefined(name):
					if r.MayModifyParam(name, ai) {
						mark(idx)
					}
				default:
					if _, ro := _libraryReadOnly[name]; ro {
						continue
					}
					if LibraryWritesThrough(name, ai) {
						mark(idx)
						continue
					}
					if !IsKnownLibrary(name) {
						mark(idx) // unknown external: conservative
					}
				}
			}
		}
		return true
	})
	// A parameter whose address escapes (stored anywhere) is conservatively
	// modified; detect pointer params appearing on the RHS of assignments
	// to non-local storage. A simple over-approximation: any assignment
	// whose RHS mentions the parameter and whose LHS is a global or a
	// member/deref target marks the parameter.
	cast.Inspect(f.Body, func(n cast.Node) bool {
		x, ok := n.(*cast.AssignExpr)
		if !ok {
			return true
		}
		idx := paramOf(x.RHS)
		if idx < 0 {
			return true
		}
		switch lv := cast.Unparen(x.LHS).(type) {
		case *cast.Ident:
			if lv.Sym != nil && lv.Sym.IsGlobal {
				mark(idx)
			}
		case *cast.MemberExpr, *cast.UnaryExpr, *cast.IndexExpr:
			mark(idx)
		}
		return true
	})
	return changed
}

func (r *Result) isDefined(name string) bool {
	_, ok := r.mods[name]
	return ok
}
