package cinterp

import (
	"repro/internal/backend"
	"repro/internal/ctoken"
)

// formatC renders a printf-style format string against evaluated
// arguments through backend's printf model, which applies C's argument
// conversions: a negative char passed to %o is sign-extended to int and
// then read as unsigned — the exact mechanism behind the LibTIFF
// vulnerability of Section IV-A2. The interpreter only fetches each
// argument, a missing one reading as 0: %s through checked memory, %p
// from the object's ID.
func (in *Interp) formatC(format string, args []Value, at ctoken.Extent) string {
	var out []byte
	backend.WalkFormat(format, func(s string) { out = append(out, s...) }, func(sp backend.Spec) bool {
		var v Value
		if sp.Kind() != backend.ArgNone && len(args) > 0 {
			v, args = args[0], args[1:]
		}
		var a backend.Arg
		switch sp.Kind() {
		case backend.ArgInt:
			a.Int = v.AsInt()
		case backend.ArgFloat:
			a.Float = v.AsFloat()
		case backend.ArgStr:
			if v.K == VPtr {
				a.Str = in.readCString(v.P, at)
			}
		case backend.ArgPtr:
			if v.K == VPtr && !v.P.IsNull() {
				a.Int = int64(v.P.Obj.ID)<<16 + v.P.Off
			}
		}
		out = sp.Append(out, a)
		return true
	})
	return string(out)
}
