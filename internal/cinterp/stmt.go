package cinterp

import (
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/ctype"
)

// call executes a defined function with the given argument values.
func (in *Interp) call(fn *cast.FuncDef, args []Value, at ctoken.Extent) (Value, error) {
	if len(in.frames) >= in.limits.MaxFrames {
		return Value{}, fmt.Errorf("cinterp: call depth limit at %s", in.unit.File.Position(at.Pos))
	}
	fr := &frame{fn: fn, vars: make(map[*cast.Symbol]*Object, 8)}
	// Bind parameters by value.
	for i, p := range fn.Params {
		if p.Sym == nil {
			continue
		}
		size := p.Type.Size()
		if size < 0 {
			size = 8
		}
		obj := in.newObject(p.Name, ObjStack, size)
		fr.vars[p.Sym] = obj
		if i < len(args) {
			in.storeTyped(Pointer{Obj: obj}, p.Type, args[i], at)
		}
	}
	in.frames = append(in.frames, fr)
	fl, err := in.execStmt(fn.Body)
	// Stack objects die with the frame; dangling pointers become
	// use-after-free events.
	for _, obj := range fr.vars {
		obj.Dead = true
	}
	in.frames = in.frames[:len(in.frames)-1]
	if err != nil {
		return Value{}, err
	}
	if fl.c == ctrlGoto {
		return Value{}, fmt.Errorf("cinterp: unresolved goto %q in %s", fl.label, fn.Name)
	}
	return fr.retVal, nil
}

func (in *Interp) curFrame() *frame { return in.frames[len(in.frames)-1] }

// declareLocal allocates a local variable object.
func (in *Interp) declareLocal(d *cast.VarDecl) (*Object, error) {
	size := d.Type.Size()
	if size < 0 {
		size = 8
	}
	obj := in.newObject(d.Name, ObjStack, size)
	in.curFrame().vars[d.Sym] = obj
	if d.Init != nil {
		if err := in.initObject(obj, d.Type, d.Init); err != nil {
			return nil, err
		}
	}
	return obj, nil
}

// execStmt runs one statement, returning its control disposition.
func (in *Interp) execStmt(s cast.Stmt) (flow, error) {
	if s == nil {
		return _flowNormal, nil
	}
	if err := in.step(); err != nil {
		return _flowNormal, err
	}
	switch x := s.(type) {
	case *cast.CompoundStmt:
		return in.execBlock(x)

	case *cast.DeclStmt:
		for _, d := range x.Decls {
			if d.Sym == nil {
				continue
			}
			if _, err := in.declareLocal(d); err != nil {
				return _flowNormal, err
			}
		}
		return _flowNormal, nil

	case *cast.ExprStmt:
		_, err := in.evalExpr(x.X)
		return _flowNormal, err

	case *cast.NullStmt:
		return _flowNormal, nil

	case *cast.ReturnStmt:
		if x.Result != nil {
			v, err := in.evalExpr(x.Result)
			if err != nil {
				return _flowNormal, err
			}
			in.curFrame().retVal = v
		}
		return flow{c: ctrlReturn}, nil

	case *cast.IfStmt:
		cond, err := in.evalExpr(x.Cond)
		if err != nil {
			return _flowNormal, err
		}
		if cond.AsBool() {
			return in.execStmt(x.Then)
		}
		if x.Else != nil {
			return in.execStmt(x.Else)
		}
		return _flowNormal, nil

	case *cast.WhileStmt:
		for {
			cond, err := in.evalExpr(x.Cond)
			if err != nil {
				return _flowNormal, err
			}
			if !cond.AsBool() {
				return _flowNormal, nil
			}
			fl, err := in.execStmt(x.Body)
			if err != nil {
				return _flowNormal, err
			}
			switch fl.c {
			case ctrlBreak:
				return _flowNormal, nil
			case ctrlReturn, ctrlGoto:
				return fl, nil
			}
		}

	case *cast.DoWhileStmt:
		for {
			fl, err := in.execStmt(x.Body)
			if err != nil {
				return _flowNormal, err
			}
			switch fl.c {
			case ctrlBreak:
				return _flowNormal, nil
			case ctrlReturn, ctrlGoto:
				return fl, nil
			}
			cond, err := in.evalExpr(x.Cond)
			if err != nil {
				return _flowNormal, err
			}
			if !cond.AsBool() {
				return _flowNormal, nil
			}
		}

	case *cast.ForStmt:
		if x.Init != nil {
			if _, err := in.execStmt(x.Init); err != nil {
				return _flowNormal, err
			}
		}
		for {
			if x.Cond != nil {
				cond, err := in.evalExpr(x.Cond)
				if err != nil {
					return _flowNormal, err
				}
				if !cond.AsBool() {
					return _flowNormal, nil
				}
			}
			fl, err := in.execStmt(x.Body)
			if err != nil {
				return _flowNormal, err
			}
			switch fl.c {
			case ctrlBreak:
				return _flowNormal, nil
			case ctrlReturn, ctrlGoto:
				return fl, nil
			}
			if x.Post != nil {
				if _, err := in.evalExpr(x.Post); err != nil {
					return _flowNormal, err
				}
			}
		}

	case *cast.BreakStmt:
		return flow{c: ctrlBreak}, nil

	case *cast.ContinueStmt:
		return flow{c: ctrlContinue}, nil

	case *cast.GotoStmt:
		return flow{c: ctrlGoto, label: x.Label}, nil

	case *cast.LabeledStmt:
		return in.execStmt(x.Stmt)

	case *cast.SwitchStmt:
		return in.execSwitch(x)

	case *cast.CaseStmt:
		return in.execStmt(x.Stmt)

	default:
		return _flowNormal, fmt.Errorf("cinterp: unsupported statement %T", s)
	}
}

// execBlock runs a compound statement, resolving gotos whose labels live
// in this block (directly or nested under labeled statements at this
// level).
func (in *Interp) execBlock(b *cast.CompoundStmt) (flow, error) {
	i := 0
	for i < len(b.Items) {
		fl, err := in.execStmt(b.Items[i])
		if err != nil {
			return _flowNormal, err
		}
		switch fl.c {
		case ctrlNormal:
			i++
		case ctrlGoto:
			if idx, ok := findLabel(b.Items, fl.label); ok {
				i = idx
				continue
			}
			return fl, nil // propagate to an outer block
		default:
			return fl, nil
		}
	}
	return _flowNormal, nil
}

// findLabel locates the index of the item carrying the given label.
func findLabel(items []cast.Stmt, label string) (int, bool) {
	for i, s := range items {
		if ls, ok := s.(*cast.LabeledStmt); ok && ls.Label == label {
			return i, true
		}
	}
	return 0, false
}

// execSwitch evaluates the tag and runs the matching case with C
// fallthrough semantics.
func (in *Interp) execSwitch(sw *cast.SwitchStmt) (flow, error) {
	tag, err := in.evalExpr(sw.Tag)
	if err != nil {
		return _flowNormal, err
	}
	// An unbraced body is one statement, which may itself be a case.
	items := []cast.Stmt{sw.Body}
	if body, ok := sw.Body.(*cast.CompoundStmt); ok {
		items = body.Items
	}
	// Find the matching case (or default).
	start := -1
	defaultIdx := -1
	for i, item := range items {
		cs, ok := item.(*cast.CaseStmt)
		if !ok {
			continue
		}
		if cs.Value == nil {
			defaultIdx = i
			continue
		}
		v, err := in.evalExpr(cs.Value)
		if err != nil {
			return _flowNormal, err
		}
		if v.AsInt() == tag.AsInt() {
			start = i
			break
		}
	}
	if start < 0 {
		start = defaultIdx
	}
	if start < 0 {
		return _flowNormal, nil
	}
	for i := start; i < len(items); i++ {
		fl, err := in.execStmt(items[i])
		if err != nil {
			return _flowNormal, err
		}
		switch fl.c {
		case ctrlBreak:
			return _flowNormal, nil
		case ctrlReturn, ctrlContinue, ctrlGoto:
			return fl, nil
		}
	}
	return _flowNormal, nil
}

// lookupVar finds the object backing a symbol (innermost frame first,
// then globals).
func (in *Interp) lookupVar(sym *cast.Symbol) (*Object, bool) {
	if len(in.frames) > 0 {
		if obj, ok := in.curFrame().vars[sym]; ok {
			return obj, true
		}
	}
	obj, ok := in.globals[sym]
	return obj, ok
}

// objectFor returns (allocating lazily for globals declared without
// reaching initGlobals, e.g. builtins like stdin) the object for a symbol.
func (in *Interp) objectFor(sym *cast.Symbol) *Object {
	if obj, ok := in.lookupVar(sym); ok {
		return obj
	}
	size := 8
	if sym.Type != nil && sym.Type.Size() > 0 {
		size = sym.Type.Size()
	}
	obj := in.newObject(sym.Name, ObjGlobal, size)
	in.globals[sym] = obj
	return obj
}

// sizeOfType returns the size for sizeof evaluation.
func sizeOfType(t ctype.Type) int64 {
	if t == nil {
		return 0
	}
	if s := t.Size(); s >= 0 {
		return int64(s)
	}
	return 8
}
