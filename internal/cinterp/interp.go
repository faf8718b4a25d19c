package cinterp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/ctype"
)

// ctokenExtent aliases the source-extent type for brevity in the typed
// load/store helpers.
type ctokenExtent = ctoken.Extent

// Limits bounds an execution.
type Limits struct {
	// MaxSteps caps statement/expression evaluations (default 20M).
	MaxSteps int64
	// MaxFrames caps call depth (default 256).
	MaxFrames int
	// MaxHeap caps total heap bytes (default 64 MiB).
	MaxHeap int64
}

func (l *Limits) fill() {
	if l.MaxSteps == 0 {
		l.MaxSteps = 20_000_000
	}
	if l.MaxFrames == 0 {
		l.MaxFrames = 256
	}
	if l.MaxHeap == 0 {
		l.MaxHeap = 64 << 20
	}
}

// ErrStepLimit is returned when execution exceeds the step budget.
var ErrStepLimit = errors.New("cinterp: step limit exceeded")

// Result is the outcome of running an entry point.
type Result struct {
	// Stdout is everything the program printed.
	Stdout string
	// Return is the entry function's return value (0 for void).
	Return int64
	// Violations lists the memory-safety events in occurrence order.
	Violations []Violation
}

// HasViolations reports whether any memory-safety event occurred.
func (r *Result) HasViolations() bool { return len(r.Violations) > 0 }

// Interp executes functions of one translation unit.
type Interp struct {
	unit    *cast.TranslationUnit
	funcs   map[string]*cast.FuncDef
	limits  Limits
	objects []*Object
	globals map[*cast.Symbol]*Object
	strLits map[*cast.StringLit]*Object

	ptrHandles map[Pointer]int64
	ptrTable   []Pointer

	out       strings.Builder
	stdin     []string          // queued input lines for gets/fgets
	env       map[string]string // visible to getenv; empty outside tests
	events    []Violation
	steps     int64
	heapUsed  int64
	randState uint64

	frames []*frame
}

// frame is one function activation.
type frame struct {
	fn     *cast.FuncDef
	vars   map[*cast.Symbol]*Object
	retVal Value
}

// New prepares an interpreter for a parsed, type-checked unit.
func New(unit *cast.TranslationUnit, limits Limits) (*Interp, error) {
	limits.fill()
	in := &Interp{
		unit:       unit,
		funcs:      make(map[string]*cast.FuncDef, len(unit.Funcs)),
		limits:     limits,
		globals:    make(map[*cast.Symbol]*Object),
		strLits:    make(map[*cast.StringLit]*Object),
		ptrHandles: make(map[Pointer]int64),
	}
	for _, f := range unit.Funcs {
		in.funcs[f.Name] = f
	}
	if err := in.initGlobals(); err != nil {
		return nil, err
	}
	return in, nil
}

// SetStdin queues input lines consumed by gets/fgets.
func (in *Interp) SetStdin(lines []string) {
	in.stdin = append([]string(nil), lines...)
}

// Run executes the named function with no arguments and collects the
// result. The interpreter may be Run multiple times; globals persist,
// output and events accumulate per run.
func (in *Interp) Run(entry string) (*Result, error) {
	fn, ok := in.funcs[entry]
	if !ok {
		return nil, fmt.Errorf("cinterp: no function %q", entry)
	}
	in.out.Reset()
	in.events = nil
	in.steps = 0
	ret, err := in.call(fn, nil, fn.Extent())
	if err != nil {
		var ex exitErr
		if errors.As(err, &ex) {
			return &Result{
				Stdout:     in.out.String(),
				Return:     ex.code,
				Violations: in.events,
			}, nil
		}
		return &Result{Stdout: in.out.String(), Violations: in.events}, err
	}
	return &Result{
		Stdout:     in.out.String(),
		Return:     ret.AsInt(),
		Violations: in.events,
	}, nil
}

// initGlobals allocates and initializes file-scope objects.
func (in *Interp) initGlobals() error {
	initOne := func(d *cast.VarDecl) error {
		if d.Sym == nil || d.Sym.Kind != cast.SymVar {
			return nil
		}
		size := d.Type.Size()
		if size < 0 {
			size = 8
		}
		obj := in.newObject(d.Name, ObjGlobal, size)
		in.globals[d.Sym] = obj
		if d.Init != nil {
			if err := in.initObject(obj, d.Type, d.Init); err != nil {
				return err
			}
		}
		return nil
	}
	for _, decl := range in.unit.Decls {
		switch x := decl.(type) {
		case *cast.VarDecl:
			if err := initOne(x); err != nil {
				return err
			}
		case *cast.MultiDecl:
			for _, d := range x.Decls {
				if err := initOne(d); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// initObject evaluates an initializer into an object.
func (in *Interp) initObject(obj *Object, typ ctype.Type, init cast.Expr) error {
	ptr := Pointer{Obj: obj}
	return in.initAt(ptr, typ, init)
}

// initAt writes an initializer value at ptr with the given type.
func (in *Interp) initAt(ptr Pointer, typ ctype.Type, init cast.Expr) error {
	ut := ctype.Unqualify(typ)
	if lst, ok := cast.Unparen(init).(*cast.InitListExpr); ok {
		switch t := ut.(type) {
		case *ctype.Array:
			es := int64(t.Elem.Size())
			if es <= 0 {
				es = 1
			}
			for i, el := range lst.Elems {
				if err := in.initAt(Pointer{Obj: ptr.Obj, Off: ptr.Off + int64(i)*es}, t.Elem, el); err != nil {
					return err
				}
			}
			return nil
		case *ctype.Record:
			for i, el := range lst.Elems {
				if i >= len(t.Fields) {
					break
				}
				f := t.Fields[i]
				if err := in.initAt(Pointer{Obj: ptr.Obj, Off: ptr.Off + int64(f.Offset)}, f.Type, el); err != nil {
					return err
				}
			}
			return nil
		default:
			if len(lst.Elems) > 0 {
				return in.initAt(ptr, typ, lst.Elems[0])
			}
			return nil
		}
	}
	// char array initialized from a string literal copies the bytes.
	if arr, ok := ut.(*ctype.Array); ok && ctype.IsCharLike(arr.Elem) {
		if s, ok := cast.Unparen(init).(*cast.StringLit); ok {
			data := append([]byte(s.Value), 0)
			in.storeBytes(ptr, data, init.Extent())
			return nil
		}
	}
	v, err := in.evalExpr(init)
	if err != nil {
		return err
	}
	in.storeTyped(ptr, typ, v, init.Extent())
	return nil
}

// step counts one evaluation unit and enforces the budget.
func (in *Interp) step() error {
	in.steps++
	if in.steps > in.limits.MaxSteps {
		return ErrStepLimit
	}
	return nil
}

// Steps returns the number of evaluation steps consumed by the last Run
// (the RQ3 overhead metric: interpreted work per program).
func (in *Interp) Steps() int64 { return in.steps }

// ctrl describes how a statement terminated.
type ctrl int

const (
	ctrlNormal ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
	ctrlGoto
)

// flow carries control-flow state between statement executions.
type flow struct {
	c     ctrl
	label string
}

var _flowNormal = flow{}

// typedSize returns the byte size for loads/stores of a type (minimum 1).
func typedSize(t ctype.Type) int64 {
	s := t.Size()
	if s <= 0 {
		return 8
	}
	return int64(s)
}

// isSignedInt reports signed integer types (char is signed on the modeled
// target — the property the LibTIFF CVE depends on).
func isSignedInt(t ctype.Type) bool {
	b, ok := ctype.Unqualify(t).(*ctype.Basic)
	if !ok {
		return false
	}
	switch b.Kind {
	case ctype.Char, ctype.SChar, ctype.Short, ctype.Int, ctype.Long, ctype.LongLong:
		return true
	default:
		return false
	}
}

func isFloatType(t ctype.Type) bool {
	b, ok := ctype.Unqualify(t).(*ctype.Basic)
	return ok && b.IsFloat()
}

// storeTyped stores v at ptr according to the C type.
func (in *Interp) storeTyped(ptr Pointer, t ctype.Type, v Value, at ctokenExtent) {
	ut := ctype.Unqualify(t)
	switch ut.(type) {
	case *ctype.Pointer:
		in.storeScalar(ptr, v, 8, true, at)
	case *ctype.Record:
		// Struct assignment: byte copy from the source pointer.
		if v.K == VPtr && !v.P.IsNull() {
			n := int64(ut.Size())
			data := in.loadBytes(v.P, n, at)
			in.storeBytes(ptr, data, at)
		}
	case *ctype.Array:
		// Arrays are not assignable in C; ignore.
	default:
		in.storeScalar(ptr, v, typedSize(ut), false, at)
	}
}

// loadTyped loads a value of type t from ptr.
func (in *Interp) loadTyped(ptr Pointer, t ctype.Type, at ctokenExtent) Value {
	ut := ctype.Unqualify(t)
	switch ut.(type) {
	case *ctype.Pointer:
		return in.loadScalar(ptr, 8, true, false, false, at)
	case *ctype.Record, *ctype.Array:
		// Aggregates load as a pointer to their storage.
		return PtrV(ptr)
	default:
		return in.loadScalar(ptr, typedSize(ut), false, isFloatType(ut), isSignedInt(ut), at)
	}
}

func float32bits(f float32) uint32     { return math.Float32bits(f) }
func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float32frombits(b uint32) float32 { return math.Float32frombits(b) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }
