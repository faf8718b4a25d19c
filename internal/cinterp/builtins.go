package cinterp

import (
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/ctoken"
)

// exitErr signals a call to exit(); Run converts it into a normal result.
type exitErr struct{ code int64 }

func (e exitErr) Error() string { return fmt.Sprintf("exit(%d)", e.code) }

// evalCall dispatches a call to a defined function or a builtin.
func (in *Interp) evalCall(call *cast.CallExpr) (Value, error) {
	name := call.Callee()
	if fn, ok := in.funcs[name]; ok {
		args := make([]Value, 0, len(call.Args))
		for _, a := range call.Args {
			v, err := in.evalExpr(a)
			if err != nil {
				return Value{}, err
			}
			args = append(args, v)
		}
		return in.call(fn, args, call.Extent())
	}
	if b, ok := _builtins[name]; ok {
		args := make([]Value, 0, len(call.Args))
		for _, a := range call.Args {
			v, err := in.evalExpr(a)
			if err != nil {
				return Value{}, err
			}
			args = append(args, v)
		}
		return b(in, args, call)
	}
	return Value{}, fmt.Errorf("cinterp: call to undefined function %q", name)
}

// builtin is a native library function.
type builtin func(in *Interp, args []Value, call *cast.CallExpr) (Value, error)

var _builtins = registerBuiltins()

// registerBuiltins wires the dispatch table (assigned at declaration; no
// init function).
func registerBuiltins() map[string]builtin {
	m := baseBuiltins()
	registerStrallocBuiltins(m)
	registerAnnexKBuiltins(m)
	return m
}

func baseBuiltins() map[string]builtin {
	return map[string]builtin{
		"memset":             biMemset,
		"memcpy":             biMemcpy,
		"memmove":            biMemcpy,
		"memcmp":             biMemcmp,
		"strcpy":             biStrcpy,
		"stpcpy":             biStpcpy,
		"strncpy":            biStrncpy,
		"strcat":             biStrcat,
		"strncat":            biStrncat,
		"strlen":             biStrlen,
		"strcmp":             biStrcmp,
		"strncmp":            biStrncmp,
		"strchr":             biStrchr,
		"strrchr":            biStrrchr,
		"strstr":             biStrstr,
		"strdup":             biStrdup,
		"sprintf":            biSprintf,
		"snprintf":           biSnprintf,
		"vsprintf":           biSprintf,
		"vsnprintf":          biSnprintf,
		"printf":             biPrintf,
		"fprintf":            biFprintf,
		"puts":               biPuts,
		"putchar":            biPutchar,
		"getchar":            biGetchar,
		"gets":               biGets,
		"fgets":              biFgets,
		"malloc":             biMalloc,
		"g_malloc":           biMalloc,
		"calloc":             biCalloc,
		"realloc":            biRealloc,
		"free":               biFree,
		"alloca":             biMalloc,
		"malloc_usable_size": biMallocUsableSize,
		"g_strlcpy":          biStrlcpy,
		"strlcpy":            biStrlcpy,
		"g_strlcat":          biStrlcat,
		"strlcat":            biStrlcat,
		"g_snprintf":         biSnprintf,
		"g_vsnprintf":        biSnprintf,
		"exit":               biExit,
		"abort":              biAbort,
		"atoi":               biAtoi,
		"atol":               biAtoi,
		"rand":               biRand,
		"srand":              biSrand,
		"getenv":             biGetenv,
		"scanf":              biScanf,
		"fopen":              biFopen,
		"fclose":             biNop,
		"fwrite":             biNop,
		"fread":              biNop,
	}
}

// readCString reads a NUL-terminated string starting at p with checked
// accesses. Unterminated buffers record an overread and stop at the
// object boundary.
func (in *Interp) readCString(p Pointer, at ctoken.Extent) string {
	if p.IsNull() {
		in.checkAccess(p, 1, false, at)
		return ""
	}
	var sb strings.Builder
	for i := int64(0); ; i++ {
		q := p
		q.Off += i
		if q.Obj.Dead {
			in.violateUAF(q.Obj, false, at)
			return sb.String()
		}
		if q.Off < 0 || q.Off >= int64(len(q.Obj.Data)) {
			in.violate(q.Obj, q.Off, false, at)
			return sb.String()
		}
		c := q.Obj.Data[q.Off]
		if c == 0 {
			return sb.String()
		}
		sb.WriteByte(c)
	}
}

// writeCBytes writes data at p with checked accesses, clamping at the
// boundary and recording one violation when truncated.
func (in *Interp) writeCBytes(p Pointer, data []byte, at ctoken.Extent) {
	if p.IsNull() {
		in.checkAccess(p, 1, true, at)
		return
	}
	if p.Obj.Dead {
		in.violateUAF(p.Obj, true, at)
		return
	}
	if p.Off < 0 {
		in.violate(p.Obj, p.Off, true, at)
		return
	}
	room := int64(len(p.Obj.Data)) - p.Off
	n := int64(len(data))
	if n > room {
		in.violate(p.Obj, p.Off+room, true, at)
		n = room
	}
	if n > 0 && !p.Obj.ReadOnly {
		copy(p.Obj.Data[p.Off:p.Off+n], data[:n])
	}
}

func argPtr(args []Value, i int) Pointer {
	if i < len(args) && args[i].K == VPtr {
		return args[i].P
	}
	return Pointer{}
}

func argInt(args []Value, i int) int64 {
	if i < len(args) {
		return args[i].AsInt()
	}
	return 0
}

func biMemset(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	p := argPtr(args, 0)
	c := byte(argInt(args, 1))
	n := argInt(args, 2)
	data := make([]byte, n)
	for i := range data {
		data[i] = c
	}
	in.writeCBytes(p, data, call.Extent())
	return args[0], nil
}

func biMemcpy(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	dst := argPtr(args, 0)
	src := argPtr(args, 1)
	n := argInt(args, 2)
	if n < 0 {
		n = 0
	}
	// Checked read: clamp to the source object.
	var data []byte
	if !src.IsNull() && !src.Obj.Dead && src.Off >= 0 {
		avail := int64(len(src.Obj.Data)) - src.Off
		take := n
		if take > avail {
			in.violate(src.Obj, src.Off+avail, false, call.Extent())
			take = avail
		}
		if take > 0 {
			data = append(data, src.Obj.Data[src.Off:src.Off+take]...)
		}
	} else {
		in.checkAccess(src, 1, false, call.Extent())
	}
	// Pad to the requested count so the write-side check still sees the
	// intended length.
	for int64(len(data)) < n {
		data = append(data, 0)
	}
	in.writeCBytes(dst, data, call.Extent())
	return args[0], nil
}

func biMemcmp(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	a := in.loadBytes(argPtr(args, 0), argInt(args, 2), call.Extent())
	b := in.loadBytes(argPtr(args, 1), argInt(args, 2), call.Extent())
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return IntV(-1), nil
			}
			return IntV(1), nil
		}
	}
	return IntV(0), nil
}

func biStrcpy(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	s := in.readCString(argPtr(args, 1), call.Extent())
	in.writeCBytes(argPtr(args, 0), append([]byte(s), 0), call.Extent())
	return args[0], nil
}

// biStpcpy copies as strcpy does and returns a pointer to the copied NUL.
func biStpcpy(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	s := in.readCString(argPtr(args, 1), call.Extent())
	in.writeCBytes(argPtr(args, 0), append([]byte(s), 0), call.Extent())
	p := argPtr(args, 0)
	p.Off += int64(len(s))
	return PtrV(p), nil
}

func biStrncpy(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	s := in.readCString(argPtr(args, 1), call.Extent())
	n := argInt(args, 2)
	buf := make([]byte, n)
	copy(buf, s)
	in.writeCBytes(argPtr(args, 0), buf, call.Extent())
	return args[0], nil
}

func biStrcat(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	dst := argPtr(args, 0)
	cur := in.readCString(dst, call.Extent())
	s := in.readCString(argPtr(args, 1), call.Extent())
	p := dst
	p.Off += int64(len(cur))
	in.writeCBytes(p, append([]byte(s), 0), call.Extent())
	return args[0], nil
}

func biStrncat(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	dst := argPtr(args, 0)
	cur := in.readCString(dst, call.Extent())
	s := in.readCString(argPtr(args, 1), call.Extent())
	n := argInt(args, 2)
	if int64(len(s)) > n {
		s = s[:n]
	}
	p := dst
	p.Off += int64(len(cur))
	in.writeCBytes(p, append([]byte(s), 0), call.Extent())
	return args[0], nil
}

func biStrlen(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	return IntV(int64(len(in.readCString(argPtr(args, 0), call.Extent())))), nil
}

func biStrcmp(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	a := in.readCString(argPtr(args, 0), call.Extent())
	b := in.readCString(argPtr(args, 1), call.Extent())
	return IntV(int64(strings.Compare(a, b))), nil
}

func biStrncmp(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	a := in.readCString(argPtr(args, 0), call.Extent())
	b := in.readCString(argPtr(args, 1), call.Extent())
	n := int(argInt(args, 2))
	if len(a) > n {
		a = a[:n]
	}
	if len(b) > n {
		b = b[:n]
	}
	return IntV(int64(strings.Compare(a, b))), nil
}

func biStrchr(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	p := argPtr(args, 0)
	s := in.readCString(p, call.Extent())
	c := byte(argInt(args, 1))
	idx := strings.IndexByte(s, c)
	if c == 0 {
		idx = len(s)
	}
	if idx < 0 {
		return NullV(), nil
	}
	p.Off += int64(idx)
	return PtrV(p), nil
}

func biStrrchr(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	p := argPtr(args, 0)
	s := in.readCString(p, call.Extent())
	idx := strings.LastIndexByte(s, byte(argInt(args, 1)))
	if idx < 0 {
		return NullV(), nil
	}
	p.Off += int64(idx)
	return PtrV(p), nil
}

func biStrstr(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	p := argPtr(args, 0)
	hay := in.readCString(p, call.Extent())
	needle := in.readCString(argPtr(args, 1), call.Extent())
	idx := strings.Index(hay, needle)
	if idx < 0 {
		return NullV(), nil
	}
	p.Off += int64(idx)
	return PtrV(p), nil
}

func biStrdup(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	s := in.readCString(argPtr(args, 0), call.Extent())
	obj, err := in.heapAlloc(int64(len(s)+1), call)
	if err != nil {
		return Value{}, err
	}
	copy(obj.Data, s)
	return PtrV(Pointer{Obj: obj}), nil
}

func biSprintf(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	fmtStr := in.readCString(argPtr(args, 1), call.Extent())
	out := in.formatC(fmtStr, args[2:], call.Extent())
	in.writeCBytes(argPtr(args, 0), append([]byte(out), 0), call.Extent())
	return IntV(int64(len(out))), nil
}

func biSnprintf(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	n := argInt(args, 1)
	fmtStr := in.readCString(argPtr(args, 2), call.Extent())
	out := in.formatC(fmtStr, args[3:], call.Extent())
	full := int64(len(out))
	if n > 0 {
		if full >= n {
			out = out[:n-1]
		}
		in.writeCBytes(argPtr(args, 0), append([]byte(out), 0), call.Extent())
	}
	return IntV(full), nil
}

func biPrintf(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	fmtStr := in.readCString(argPtr(args, 0), call.Extent())
	out := in.formatC(fmtStr, args[1:], call.Extent())
	in.out.WriteString(out)
	return IntV(int64(len(out))), nil
}

func biFprintf(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	fmtStr := in.readCString(argPtr(args, 1), call.Extent())
	out := in.formatC(fmtStr, args[2:], call.Extent())
	in.out.WriteString(out)
	return IntV(int64(len(out))), nil
}

func biPuts(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	s := in.readCString(argPtr(args, 0), call.Extent())
	in.out.WriteString(s)
	in.out.WriteByte('\n')
	return IntV(int64(len(s) + 1)), nil
}

// biGetchar reads the next byte of the queued input, whose lines end in
// '\n', or -1 (EOF) once it is used up.
func biGetchar(in *Interp, _ []Value, _ *cast.CallExpr) (Value, error) {
	if len(in.stdin) == 0 {
		return IntV(-1), nil
	}
	line := in.stdin[0]
	if line == "" {
		in.stdin = in.stdin[1:]
		return IntV('\n'), nil
	}
	in.stdin[0] = line[1:]
	return IntV(int64(line[0])), nil
}

func biPutchar(in *Interp, args []Value, _ *cast.CallExpr) (Value, error) {
	in.out.WriteByte(byte(argInt(args, 0)))
	return args[0], nil
}

func biGets(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	if len(in.stdin) == 0 {
		return NullV(), nil
	}
	line := in.stdin[0]
	in.stdin = in.stdin[1:]
	// gets writes unboundedly: the checked write detects the overflow.
	in.writeCBytes(argPtr(args, 0), append([]byte(line), 0), call.Extent())
	return args[0], nil
}

func biFgets(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	if len(in.stdin) == 0 {
		return NullV(), nil
	}
	line := in.stdin[0] + "\n" // fgets keeps the newline
	in.stdin = in.stdin[1:]
	n := argInt(args, 1)
	if n <= 0 {
		return NullV(), nil
	}
	if int64(len(line)) > n-1 {
		line = line[:n-1]
	}
	in.writeCBytes(argPtr(args, 0), append([]byte(line), 0), call.Extent())
	return args[0], nil
}

// heapAlloc creates a heap object, enforcing the heap budget.
func (in *Interp) heapAlloc(n int64, call *cast.CallExpr) (*Object, error) {
	if n < 1 {
		n = 1
	}
	if in.heapUsed+n > in.limits.MaxHeap {
		return nil, fmt.Errorf("cinterp: heap limit exceeded at %s",
			in.unit.File.Position(call.Extent().Pos))
	}
	in.heapUsed += n
	obj := in.newObject(fmt.Sprintf("heap@%s", in.unit.File.Position(call.Extent().Pos)), ObjHeap, int(n))
	return obj, nil
}

func biMalloc(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	obj, err := in.heapAlloc(argInt(args, 0), call)
	if err != nil {
		return Value{}, err
	}
	return PtrV(Pointer{Obj: obj}), nil
}

func biCalloc(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	obj, err := in.heapAlloc(argInt(args, 0)*argInt(args, 1), call)
	if err != nil {
		return Value{}, err
	}
	return PtrV(Pointer{Obj: obj}), nil
}

func biRealloc(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	old := argPtr(args, 0)
	obj, err := in.heapAlloc(argInt(args, 1), call)
	if err != nil {
		return Value{}, err
	}
	if !old.IsNull() && !old.Obj.Dead {
		copy(obj.Data, old.Obj.Data)
		old.Obj.Dead = true
	}
	return PtrV(Pointer{Obj: obj}), nil
}

func biFree(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	p := argPtr(args, 0)
	if p.IsNull() {
		return IntV(0), nil
	}
	if p.Obj.Dead {
		in.events = append(in.events, Violation{
			CWE: 415, Pos: in.unit.File.Position(call.Extent().Pos), Msg: "double free",
		})
		return IntV(0), nil
	}
	p.Obj.Dead = true
	return IntV(0), nil
}

func biMallocUsableSize(in *Interp, args []Value, _ *cast.CallExpr) (Value, error) {
	p := argPtr(args, 0)
	if p.IsNull() || p.Obj.Dead {
		return IntV(0), nil
	}
	return IntV(int64(len(p.Obj.Data))), nil
}

func biStrlcpy(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	src := in.readCString(argPtr(args, 1), call.Extent())
	size := argInt(args, 2)
	full := int64(len(src))
	if size > 0 {
		s := src
		if full >= size {
			s = s[:size-1]
		}
		in.writeCBytes(argPtr(args, 0), append([]byte(s), 0), call.Extent())
	}
	return IntV(full), nil
}

func biStrlcat(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	dst := argPtr(args, 0)
	cur := in.readCString(dst, call.Extent())
	src := in.readCString(argPtr(args, 1), call.Extent())
	size := argInt(args, 2)
	full := int64(len(cur) + len(src))
	room := size - int64(len(cur)) - 1
	if room > 0 {
		s := src
		if int64(len(s)) > room {
			s = s[:room]
		}
		p := dst
		p.Off += int64(len(cur))
		in.writeCBytes(p, append([]byte(s), 0), call.Extent())
	}
	return IntV(full), nil
}

func biExit(_ *Interp, args []Value, _ *cast.CallExpr) (Value, error) {
	return Value{}, exitErr{code: argInt(args, 0)}
}

func biAbort(_ *Interp, _ []Value, _ *cast.CallExpr) (Value, error) {
	return Value{}, exitErr{code: 134}
}

func biAtoi(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	s := in.readCString(argPtr(args, 0), call.Extent())
	var n int64
	neg := false
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		neg = s[i] == '-'
		i++
	}
	for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
		n = n*10 + int64(s[i]-'0')
	}
	if neg {
		n = -n
	}
	return IntV(n), nil
}

// Deterministic LCG so runs are reproducible.
func biRand(in *Interp, _ []Value, _ *cast.CallExpr) (Value, error) {
	in.randState = in.randState*6364136223846793005 + 1442695040888963407
	return IntV(int64((in.randState >> 33) & 0x7FFFFFFF)), nil
}

func biSrand(in *Interp, args []Value, _ *cast.CallExpr) (Value, error) {
	in.randState = uint64(argInt(args, 0))
	return IntV(0), nil
}

func biGetenv(in *Interp, args []Value, call *cast.CallExpr) (Value, error) {
	name := in.readCString(argPtr(args, 0), call.Extent())
	val, ok := in.env[name]
	if !ok {
		return NullV(), nil
	}
	obj := in.newObject("env:"+name, ObjGlobal, len(val)+1)
	copy(obj.Data, val)
	return PtrV(Pointer{Obj: obj}), nil
}

func biScanf(_ *Interp, _ []Value, _ *cast.CallExpr) (Value, error) {
	return IntV(0), nil
}

func biFopen(_ *Interp, _ []Value, _ *cast.CallExpr) (Value, error) {
	return NullV(), nil
}

func biNop(_ *Interp, _ []Value, _ *cast.CallExpr) (Value, error) {
	return IntV(0), nil
}
