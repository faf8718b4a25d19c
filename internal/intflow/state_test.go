package intflow

import (
	"testing"

	"repro/internal/interval"
	"repro/internal/overflow"
)

// TestEnvKeepsWrapTaint checks the Env join and widen over ival: a
// wrap-tainted value held on one side only survives a join and a widen
// that introduces it, an untainted one-sided value is dropped, top is
// never stored, and equality ignores the guard text.
func TestEnvKeepsWrapTaint(t *testing.T) {
	tainted := ival{v: interval.Range(0, 255), wrapped: true, definite: true, guard: "if (a > 255 - b)"}
	plain := ival{v: interval.Const(7)}
	// What survives of tainted against top: the taint and its guard,
	// not the interval or definiteness.
	taint := ival{v: interval.Top(), wrapped: true, guard: tainted.guard}
	env := func(vs map[int]ival) overflow.Env[ival] { return overflow.NewEnv(vs) }
	tests := []struct {
		name      string
		a, b      map[int]ival
		join, wid map[int]ival
	}{
		{"tainted left only", map[int]ival{1: tainted}, nil, map[int]ival{1: taint}, map[int]ival{1: taint}},
		{"tainted right only", nil, map[int]ival{1: tainted}, map[int]ival{1: taint}, map[int]ival{1: taint}},
		{"plain left only", map[int]ival{1: plain}, nil, nil, nil},
		{"plain right only", nil, map[int]ival{1: plain}, nil, nil},
		{"both sides", map[int]ival{1: plain}, map[int]ival{1: tainted},
			map[int]ival{1: plain.Join(tainted)}, map[int]ival{1: plain.Widen(tainted)}},
	}
	for _, tc := range tests {
		a, b := env(tc.a), env(tc.b)
		if got := a.Join(b); !got.Equal(env(tc.join)) {
			t.Errorf("%s: join differs from %v", tc.name, tc.join)
		}
		if got := a.Widen(b); !got.Equal(env(tc.wid)) {
			t.Errorf("%s: widen differs from %v", tc.name, tc.wid)
		}
	}
	for _, got := range []overflow.Env[ival]{env(nil).Join(env(map[int]ival{1: tainted})), env(nil).Widen(env(map[int]ival{1: tainted}))} {
		if got.Get(1).guard != tainted.guard {
			t.Errorf("one-sided merge lost the guard: %+v", got.Get(1))
		}
	}
	if got := env(map[int]ival{1: plain}).Set(1, topIval()); !got.Equal(env(nil)) {
		t.Error("Set stored top")
	}
	if !env(map[int]ival{1: plain}).Set(2, topIval()).Equal(env(map[int]ival{1: plain})) {
		t.Error("Set of top added a key")
	}
	reguarded := tainted
	reguarded.guard = "if (a < b)"
	if !env(map[int]ival{1: tainted}).Equal(env(map[int]ival{1: reguarded})) {
		t.Error("equality compared the guard text")
	}
	if env(map[int]ival{1: tainted}).Equal(env(map[int]ival{1: plain})) {
		t.Error("equality ignored the wrap taint")
	}
}
