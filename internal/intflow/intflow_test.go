package intflow_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/intflow"
	"repro/internal/overflow"
)

func analyzeSrc(t *testing.T, src string) []intflow.Finding {
	t.Helper()
	snap, err := analysis.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return snap.IntFindings()
}

// has asserts at least one finding with the given CWE and severity and
// returns the first.
func has(t *testing.T, fs []intflow.Finding, cwe int, sev overflow.Severity) intflow.Finding {
	t.Helper()
	for _, f := range fs {
		if f.CWE == cwe && f.Severity == sev {
			return f
		}
	}
	t.Fatalf("no CWE-%d %s finding in %v", cwe, sev, fs)
	return intflow.Finding{}
}

func hasCWE(fs []intflow.Finding, cwe int) bool {
	for _, f := range fs {
		if f.CWE == cwe {
			return true
		}
	}
	return false
}

// TestTransferFunctions is the table-driven sweep over the transfer
// functions: arithmetic, casts, shifts, division, mixed signedness,
// compound assignment, and increments.
func TestTransferFunctions(t *testing.T) {
	tests := []struct {
		name string
		src  string
		cwe  int
		sev  overflow.Severity
	}{
		{
			name: "mul_wraps_uint_definite",
			src: `void f(void) {
    unsigned int a = 65537;
    unsigned int b = 65537;
    unsigned int c = a * b;
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "add_wraps_int_definite",
			src: `void f(void) {
    int a = 2000000000;
    int b = a + a;
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "unsigned_sub_underflows_definite",
			src: `void f(unsigned int a) {
    if (a == 0) {
        unsigned int b = a - 1;
        (void)b;
    }
}`,
			cwe: 191, sev: overflow.SevDefinite,
		},
		{
			name: "truncating_cast_to_short",
			src: `void f(void) {
    int a = 70000;
    short s = (short)a;
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "negative_cast_to_short_underflows",
			src: `void f(void) {
    int a = -70000;
    short s = (short)a;
}`,
			cwe: 191, sev: overflow.SevDefinite,
		},
		{
			name: "shift_left_wraps_int",
			src: `void f(void) {
    int a = 1;
    int b = a << 31;
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "division_keeps_precision_for_cast_check",
			src: `void f(void) {
    int a = 60000;
    unsigned char c = (unsigned char)(a / 100);
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "negative_int_to_unsigned_underflows",
			src: `void f(void) {
    int s = -1;
    unsigned int u = (unsigned int)s;
}`,
			cwe: 191, sev: overflow.SevDefinite,
		},
		{
			name: "compound_add_wraps_ushort",
			src: `void f(void) {
    unsigned short t = 60000;
    t += 10000;
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "implicit_truncating_assignment",
			src: `void f(void) {
    int a = 300;
    unsigned char c;
    c = a;
}`,
			cwe: 190, sev: overflow.SevDefinite,
		},
		{
			name: "negation_of_min_underflow_to_unsigned",
			src: `void f(void) {
    int a = 5;
    unsigned int u = (unsigned int)(-a);
}`,
			cwe: 191, sev: overflow.SevDefinite,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			fs := analyzeSrc(t, tc.src)
			has(t, fs, tc.cwe, tc.sev)
		})
	}
}

// TestQuietOnSafeArithmetic asserts zero findings for in-range code —
// the false-positive guard for the transfer functions.
func TestQuietOnSafeArithmetic(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{
			name: "bounded_loop_uchar",
			src: `void f(void) {
    unsigned char i;
    int sum = 0;
    for (i = 0; i < 100; i++) {
        sum = sum + i;
    }
}`,
		},
		{
			name: "in_range_mul",
			src: `void f(void) {
    unsigned int a = 1000;
    unsigned int b = 1000;
    unsigned int c = a * b;
}`,
		},
		{
			name: "in_range_cast",
			src: `void f(void) {
    int a = 200;
    unsigned char c = (unsigned char)a;
}`,
		},
		{
			name: "unknown_params_stay_quiet",
			src: `int f(int a, int b) {
    return a + b;
}`,
		},
		{
			name: "guarded_unsigned_sub",
			src: `void f(unsigned int a) {
    if (a > 0) {
        unsigned int b = a - 1;
        (void)b;
    }
}`,
		},
		{
			name: "widened_accumulator_not_flagged",
			src: `void f(int n) {
    int acc = 0;
    int i;
    for (i = 0; i < n; i++) {
        acc = acc + 1;
    }
}`,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if fs := analyzeSrc(t, tc.src); len(fs) != 0 {
				t.Fatalf("safe code flagged: %v", fs)
			}
		})
	}
}

// TestUnsignedWrapLoopBound is the classic `for (uc i = 0; i < 300; ...)`
// infinite loop: the increment can never reach the bound.
func TestUnsignedWrapLoopBound(t *testing.T) {
	fs := analyzeSrc(t, `void f(void) {
    unsigned char i;
    int sum = 0;
    for (i = 0; i < 300; i++) {
        sum = sum + 1;
    }
}`)
	if !hasCWE(fs, 190) {
		t.Fatalf("wrapping loop counter not flagged: %v", fs)
	}
}

// TestAllocSinkDirect checks CWE-680 with the wrap in the argument
// expression itself, and that the suggested guard names the type bound.
func TestAllocSinkDirect(t *testing.T) {
	fs := analyzeSrc(t, `void f(void) {
    unsigned int n = 70000;
    unsigned int sz = 70000;
    char *p = malloc(n * sz);
    p[0] = 0;
}`)
	f := has(t, fs, 680, overflow.SevDefinite)
	if f.Guard == "" {
		t.Fatalf("CWE-680 finding has no suggested guard: %+v", f)
	}
	if !strings.Contains(f.Guard, "4294967295U") {
		t.Fatalf("guard does not name the unsigned bound: %q", f.Guard)
	}
	if !hasCWE(fs, 190) {
		t.Fatalf("the multiplication wrap itself was not reported: %v", fs)
	}
}

// TestAllocSinkThroughVariable checks that wrap taint stored in a
// variable still reaches a later allocation.
func TestAllocSinkThroughVariable(t *testing.T) {
	fs := analyzeSrc(t, `void f(void) {
    unsigned int n = 80000;
    unsigned int total = n * n;
    char *p = malloc(total);
    p[0] = 0;
}`)
	f := has(t, fs, 680, overflow.SevDefinite)
	if f.Object != "total" {
		t.Fatalf("sink object = %q, want total", f.Object)
	}
	if f.Guard == "" {
		t.Fatalf("no fallback guard on stored-taint sink: %+v", f)
	}
}

// TestAllocSinkWrapperDiscovery checks sink closure over the call
// graph: a wrapper forwarding its parameter to malloc becomes a sink.
func TestAllocSinkWrapperDiscovery(t *testing.T) {
	fs := analyzeSrc(t, `static char *mkbuf(unsigned int n) {
    return malloc(n);
}
void f(void) {
    unsigned int a = 70000;
    unsigned int b = 70000;
    char *p = mkbuf(a * b);
    p[0] = 0;
}`)
	if !hasCWE(fs, 680) {
		t.Fatalf("wrapper allocation sink not discovered: %v", fs)
	}
}

// TestAllocSinkForwardedThroughOwnParams checks that sink discovery
// reaches its least fixpoint when a wrapper forwards one parameter into
// another of its own sink positions, one position per round, more rounds
// than the unit has functions.
func TestAllocSinkForwardedThroughOwnParams(t *testing.T) {
	fs := analyzeSrc(t, `static char *mk(unsigned int a, unsigned int b, unsigned int c, unsigned int d) {
    if (d) return mk(0, 0, d, 0);
    if (c) return mk(0, c, 0, 0);
    if (b) return mk(b, 0, 0, 0);
    return malloc(a);
}
void f(void) {
    unsigned int n = 70000;
    char *p = mk(0, 0, 0, n * n);
    p[0] = 0;
}`)
	for _, f := range fs {
		if f.CWE == 680 && f.Function == "f" {
			return
		}
	}
	t.Fatalf("sink at the fourth parameter not discovered: %v", fs)
}

// TestCallocBothArgsAreSinks checks the two-argument allocator.
func TestCallocBothArgsAreSinks(t *testing.T) {
	fs := analyzeSrc(t, `void f(void) {
    unsigned int n = 70000;
    char *p = calloc(n * n, 1);
    p[0] = 0;
}`)
	if !hasCWE(fs, 680) {
		t.Fatalf("calloc nmemb sink missed: %v", fs)
	}
}

// TestGuardTextForBinop checks the IntRepair-style guard shape at the
// wrap site itself.
func TestGuardTextForBinop(t *testing.T) {
	fs := analyzeSrc(t, `void f(void) {
    unsigned int a = 70000;
    unsigned int b = 70000;
    unsigned int c = a * b;
}`)
	f := has(t, fs, 190, overflow.SevDefinite)
	if !strings.Contains(f.Guard, "a > 4294967295U / b") {
		t.Fatalf("multiplication guard = %q, want a > MAX / b shape", f.Guard)
	}
}

// TestInterproceduralWrapThroughCall checks that argument ranges
// propagate: the callee only wraps under the caller's concrete values.
func TestInterproceduralWrapThroughCall(t *testing.T) {
	fs := analyzeSrc(t, `static unsigned int scale(unsigned int n) {
    return n * 65536;
}
void f(void) {
    unsigned int r = scale(70000);
    (void)r;
}`)
	f := has(t, fs, 190, overflow.SevDefinite)
	if len(f.Contexts) == 0 || !strings.Contains(f.Contexts[0], "->") {
		t.Fatalf("interprocedural finding has no call chain: %+v", f)
	}
}

// TestBudgetDegradesNeverSilent checks the fault-containment contract:
// an exhausted solver budget produces a CWEIncomplete finding and a
// degradation note, not a clean report.
func TestBudgetDegradesNeverSilent(t *testing.T) {
	snap, err := analysis.Parse("t.c", `void f(void) {
    int i;
    int sum = 0;
    for (i = 0; i < 1000; i++) {
        sum = sum + i;
    }
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	a := intflow.New(snap.Unit(), intflow.Options{Limits: fault.Limits{Steps: 1}}, snap)
	fs := a.Analyze()
	found := false
	for _, f := range fs {
		if f.CWE == intflow.CWEIncomplete && f.Degraded && f.Severity == overflow.SevPossible {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget exhaustion did not degrade: %v", fs)
	}
	degs := a.Degradations()
	if len(degs) == 0 || !strings.HasPrefix(degs[0], "intflow:") {
		t.Fatalf("no intflow-prefixed degradation note: %v", degs)
	}
}

// TestFindingsAreSortedAndDeduped checks report hygiene: source order,
// no duplicate (extent, CWE) pairs.
func TestFindingsAreSortedAndDeduped(t *testing.T) {
	fs := analyzeSrc(t, `void f(void) {
    unsigned int a = 70000;
    unsigned int b = a * a;
    unsigned short s = (unsigned short)b;
    char *p = malloc(b);
    p[0] = 0;
}`)
	type key struct {
		pos, end int
		cwe      int
	}
	seen := make(map[key]bool)
	lastPos := -1
	for _, f := range fs {
		k := key{int(f.Extent.Pos), int(f.Extent.End), f.CWE}
		if seen[k] {
			t.Fatalf("duplicate finding %+v", f)
		}
		seen[k] = true
		if int(f.Extent.Pos) < lastPos {
			t.Fatalf("findings out of source order: %v", fs)
		}
		lastPos = int(f.Extent.Pos)
	}
	if !hasCWE(fs, 680) || !hasCWE(fs, 190) {
		t.Fatalf("expected both 190 and 680: %v", fs)
	}
}

// TestGlobalAcrossCalls pins the call effects on a global integer: a
// library call with no effect the oracle tracks keeps its value, and a
// call to an unknown function forgets it.
func TestGlobalAcrossCalls(t *testing.T) {
	for _, tc := range []struct {
		call     string
		definite bool
	}{
		{`strlen("x")`, true},
		{`printf("x")`, true},
		{`v()`, false},
	} {
		src := "int g;\nvoid v(void);\nvoid f(void) {\n    g = 2000000000;\n    " + tc.call + ";\n    int b = g + g;\n}\n"
		fs := analyzeSrc(t, src)
		found := false
		for _, f := range fs {
			found = found || f.CWE == 190 && f.Severity == overflow.SevDefinite
		}
		if found != tc.definite {
			t.Errorf("after %s: definite CWE-190 = %v, want %v (findings %v)", tc.call, found, tc.definite, fs)
		}
	}
}
