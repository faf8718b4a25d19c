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
