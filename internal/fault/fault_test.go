package fault

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestMeterUnlimited(t *testing.T) {
	m := Limits{}.NewMeter()
	for i := 0; i < 10_000; i++ {
		if !m.Step() {
			t.Fatal("unlimited meter must never exhaust")
		}
	}
}

func TestMeterBudget(t *testing.T) {
	m := Limits{Steps: 3}.NewMeter()
	for i := 0; i < 3; i++ {
		if !m.Step() {
			t.Fatalf("step %d within budget must pass", i)
		}
	}
	if m.Step() {
		t.Fatal("step past budget must fail")
	}
	if m.Step() {
		t.Fatal("meter must stay exhausted")
	}
}

func TestCancellationRoundTrip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var err error
	func() {
		defer Recover(&err)
		Limits{Ctx: ctx}.NewMeter().Step()
		t.Fatal("Step on a cancelled context must panic")
	}()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("recovered %v, want context.Canceled", err)
	}
}

func TestCheckCtxNil(t *testing.T) {
	CheckCtx(nil) // must not panic
	CheckCtx(context.Background())
}

func TestRecoverCapturesStack(t *testing.T) {
	var err error
	func() {
		defer Recover(&err)
		panic("boom in solver")
	}()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("recovered %T, want *PanicError", err)
	}
	if pe.Value != "boom in solver" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("error must carry the stack:\n%s", err)
	}
	if !strings.Contains(err.Error(), "boom in solver") {
		t.Fatalf("error must carry the panic value:\n%s", err)
	}
}

func TestRecoverPreservesExistingError(t *testing.T) {
	want := errors.New("original")
	err := want
	func() {
		defer Recover(&err)
	}()
	if err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestAsCancellationRejectsForeignPanics(t *testing.T) {
	if AsCancellation("random") != nil {
		t.Fatal("foreign panic value classified as cancellation")
	}
	if AsCancellation(nil) != nil {
		t.Fatal("nil classified as cancellation")
	}
}
