package overflow

import (
	"testing"

	"repro/internal/interval"
)

func TestStoreStrlTransfer(t *testing.T) {
	top := interval.Range(0, interval.PosInf)
	// A NUL store bounds the first NUL from above (one may exist earlier).
	if got := storeStrl(top, interval.Const(5), interval.Const(0)); got != interval.Range(0, 5) {
		t.Fatalf("zero store over unknown: got %v", got)
	}
	// When the old first NUL was provably later, the store pins it exactly.
	if got := storeStrl(interval.Range(9, interval.PosInf), interval.Const(5), interval.Const(0)); got != interval.Const(5) {
		t.Fatalf("zero store below known NUL: got %v", got)
	}
	// Non-zero store before the first NUL changes nothing.
	if got := storeStrl(interval.Const(7), interval.Const(3), interval.Const(65)); got != interval.Const(7) {
		t.Fatalf("store before NUL: got %v", got)
	}
	// Non-zero store exactly on the unique first NUL pushes it right.
	if got := storeStrl(interval.Const(7), interval.Const(7), interval.Const(65)); got != interval.Range(8, interval.PosInf) {
		t.Fatalf("store on NUL: got %v", got)
	}
	// Unknown byte joins both outcomes.
	got := storeStrl(interval.Const(7), interval.Const(2), interval.Top())
	if got.Lo != 2 || got.Hi != interval.PosInf {
		t.Fatalf("unknown store: got %v", got)
	}
}

// TestEnvDropsOneSidedVarState checks the Env join and widen over
// varState: a key held on one side only is dropped (a varState joined or
// widened with top is top), a key on both sides keeps the combined
// value, and top is never stored.
func TestEnvDropsOneSidedVarState(t *testing.T) {
	buf := topVar()
	buf.size, buf.off, buf.strl, buf.reg = interval.Const(10), interval.Const(0), interval.Const(3), regStack
	grown := buf
	grown.strl = interval.Const(5)
	n := topVar().WithInt(interval.Const(4))
	env := func(vs map[int]varState) Env[varState] { return NewEnv(vs) }
	tests := []struct {
		name      string
		a, b      Env[varState]
		join, wid map[int]varState
	}{
		{"left only", env(map[int]varState{1: buf}), env(nil), map[int]varState{}, map[int]varState{}},
		{"right only", env(nil), env(map[int]varState{1: buf}), map[int]varState{}, map[int]varState{}},
		{"int left only", env(map[int]varState{2: n}), env(nil), map[int]varState{}, map[int]varState{}},
		{"both sides", env(map[int]varState{1: buf}), env(map[int]varState{1: grown}),
			map[int]varState{1: buf.Join(grown)}, map[int]varState{1: buf.Widen(grown)}},
		{"unreached left", Env[varState]{}, env(map[int]varState{1: buf}),
			map[int]varState{1: buf}, map[int]varState{1: buf}},
	}
	for _, tc := range tests {
		if got := tc.a.Join(tc.b); !got.Equal(env(tc.join)) {
			t.Errorf("%s: join = %v, want %v", tc.name, got.vars, tc.join)
		}
		if got := tc.a.Widen(tc.b); !got.Equal(env(tc.wid)) {
			t.Errorf("%s: widen = %v, want %v", tc.name, got.vars, tc.wid)
		}
	}
	if got := env(map[int]varState{1: buf}).Set(1, topVar()); len(got.vars) != 0 {
		t.Errorf("Set stored top: %v", got.vars)
	}
	if got := env(map[int]varState{1: topVar()}); len(got.vars) != 0 {
		t.Errorf("NewEnv stored top: %v", got.vars)
	}
	other := buf
	other.reg = regHeap
	other.size = interval.Top()
	other.off = interval.Top()
	if got := env(map[int]varState{1: buf}).Join(env(map[int]varState{1: other})); len(got.vars) != 1 {
		t.Errorf("join of two known strings dropped the key: %v", got.vars)
	}
}
