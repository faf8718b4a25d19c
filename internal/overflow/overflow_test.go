package overflow_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/interval"
	"repro/internal/overflow"
)

func analyzeSrc(t *testing.T, src string) []overflow.Finding {
	t.Helper()
	snap, err := analysis.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return snap.Findings()
}

// one asserts exactly one finding with the given CWE and severity.
func one(t *testing.T, fs []overflow.Finding, cwe int, sev overflow.Severity) overflow.Finding {
	t.Helper()
	if len(fs) != 1 {
		t.Fatalf("want exactly 1 finding, got %d: %v", len(fs), fs)
	}
	f := fs[0]
	if f.CWE != cwe || f.Severity != sev {
		t.Fatalf("want CWE-%d %s, got CWE-%d %s (%s)", cwe, sev, f.CWE, f.Severity, f.Msg)
	}
	return f
}

func TestStackStrcpyDefinite(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    char src[20];
    memset(src, 'A', 15);
    src[15] = '\0';
    strcpy(buf, src);
}`)
	one(t, fs, 121, overflow.SevDefinite)
}

func TestStackStrcpyBoundedIsQuiet(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    char src[20];
    memset(src, 'A', 5);
    src[5] = '\0';
    strcpy(buf, src);
}`)
	if len(fs) != 0 {
		t.Fatalf("bounded strcpy flagged: %v", fs)
	}
}

func TestStrcpyUnknownSourcePossible(t *testing.T) {
	fs := analyzeSrc(t, `
void f(char *s) {
    char buf[8];
    strcpy(buf, s);
}`)
	one(t, fs, 121, overflow.SevPossible)
}

func TestHeapIndexWriteDefinite(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char *b;
    b = malloc(10);
    b[14] = 'Z';
}`)
	one(t, fs, 122, overflow.SevDefinite)
}

func TestPointerDecrementUnderwrite(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    char *p;
    p = buf;
    p -= 8;
    *p = 'Z';
}`)
	one(t, fs, 124, overflow.SevDefinite)
}

func TestIndexOverread(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    char c;
    c = buf[14];
    printf("%c", c);
}`)
	one(t, fs, 126, overflow.SevDefinite)
}

func TestNegativeIndexUnderread(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    int i;
    char c;
    i = -2;
    c = buf[i];
    printf("%c", c);
}`)
	one(t, fs, 127, overflow.SevDefinite)
}

func TestGetsDangerous(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[8];
    gets(buf);
}`)
	f := one(t, fs, 242, overflow.SevDefinite)
	if !strings.Contains(f.SuggestedFix, "fgets") {
		t.Fatalf("fix should suggest fgets: %q", f.SuggestedFix)
	}
}

func TestLoopFillWidensToDefinite(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    int i;
    for (i = 0; i < 15; i++) {
        buf[i] = 'F';
    }
}`)
	one(t, fs, 121, overflow.SevDefinite)
}

func TestLoopFillInBoundsIsQuiet(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    int i;
    for (i = 0; i < 10; i++) {
        buf[i] = 'F';
    }
}`)
	if len(fs) != 0 {
		t.Fatalf("in-bounds loop flagged: %v", fs)
	}
}

func TestBoundedStrncpySizeofIsQuiet(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    char src[20];
    memset(src, 'A', 15);
    src[15] = '\0';
    strncpy(buf, src, sizeof(buf));
}`)
	if len(fs) != 0 {
		t.Fatalf("sizeof-bounded strncpy flagged: %v", fs)
	}
}

func TestInterproceduralContextFindsCalleeOverflow(t *testing.T) {
	fs := analyzeSrc(t, `
void sink(char *dst, char *s) {
    strcpy(dst, s);
}
void root(void) {
    char small[4];
    char big[20];
    memset(big, 'A', 9);
    big[9] = '\0';
    sink(small, big);
}`)
	f := one(t, fs, 121, overflow.SevDefinite)
	if f.Function != "sink" {
		t.Fatalf("finding should be in sink, got %s", f.Function)
	}
	if len(f.Contexts) == 0 || !strings.Contains(f.Contexts[0], "root -> sink") {
		t.Fatalf("finding should carry the root -> sink context, got %v", f.Contexts)
	}
}

func TestInterproceduralQuietWithoutBadCaller(t *testing.T) {
	// The callee alone is not diagnosable (unknown sizes), and the only
	// caller passes fitting buffers: nothing may be reported.
	fs := analyzeSrc(t, `
void sink(char *dst, char *s) {
    strcpy(dst, s);
}
void root(void) {
    char big[20];
    char msg[4];
    msg[0] = 'h';
    msg[1] = 'i';
    msg[2] = '\0';
    sink(big, msg);
}`)
	if len(fs) != 0 {
		t.Fatalf("fitting interprocedural strcpy flagged: %v", fs)
	}
}

func TestLibtiffCVEFlaggedCWE121Definite(t *testing.T) {
	snap, err := analysis.Parse("tiff2pdf.c", corpus.LibtiffCVESource)
	if err != nil {
		t.Fatalf("parse corpus: %v", err)
	}
	fs := snap.Findings()
	var hit *overflow.Finding
	for i := range fs {
		src := snap.Unit().File.Slice(fs[i].Extent)
		if strings.Contains(src, "sprintf") {
			hit = &fs[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("sprintf CVE site not flagged; findings: %v", fs)
	}
	if hit.CWE != 121 || hit.Severity != overflow.SevDefinite {
		t.Fatalf("CVE site should be CWE-121 definite, got CWE-%d %s", hit.CWE, hit.Severity)
	}
	// Noise control: the guarded t2p_emit writes and the param-sized reads
	// must not be reported — the sprintf is the only finding.
	if len(fs) != 1 {
		t.Fatalf("want exactly the CVE finding, got %d: %v", len(fs), fs)
	}
}

// TestRefutedBranchIsQuiet checks that the checker, like the solver,
// passes over a branch whose condition the refiner proves false.
func TestRefutedBranchIsQuiet(t *testing.T) {
	fs := analyzeSrc(t, `
void f(void) {
    char buf[10];
    int n = 0;
    buf[0] = 0;
    if (0) { strcat(buf, "x"); }
    if (n > 5) { buf[n + 20] = 'a'; strcpy(buf, "0123456789abc"); }
}`)
	if len(fs) != 0 {
		t.Fatalf("want no findings in refuted branches, got %v", fs)
	}
}

func TestIntervalWiden(t *testing.T) {
	a := interval.Range(0, 4)
	if w := a.Widen(interval.Range(0, 9)); w != interval.Range(0, interval.PosInf) {
		t.Fatalf("upper widen: got %v", w)
	}
	if w := a.Widen(interval.Range(-3, 4)); w != interval.Range(interval.NegInf, 4) {
		t.Fatalf("lower widen: got %v", w)
	}
	if w := a.Widen(interval.Range(1, 3)); w != a {
		t.Fatalf("contained widen should be stable: got %v", w)
	}
}

func TestFormatLengthEstimates(t *testing.T) {
	snap, err := analysis.Parse("t.c", `
void f(void) {
    char out[16];
    sprintf(out, "ab%d", 123);
}`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if fs := snap.Findings(); len(fs) != 0 {
		t.Fatalf("exact short sprintf flagged: %v", fs)
	}
}

// TestLibraryCallEffects pins each library-call effect the oracle
// models on a destination's first NUL: every body sets up a string,
// runs one call, and probes the result with a later write whose extent
// reveals what the oracle believes the call left behind. A call the
// oracle treated as having no effect (or as havocking) reads as a
// different verdict.
func TestLibraryCallEffects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"strcpy_sets_length", `char a[8]; strcpy(a, "abc"); strcat(a, "123456");`,
			"definite write of bytes [3,10) exceeds object size [8,8]"},
		{"stpcpy_sets_length", `char a[8]; stpcpy(a, "abc"); strcat(a, "123456");`,
			"definite write of bytes [3,10) exceeds object size [8,8]"},
		{"strcat_appends", `char a[8]; strcpy(a, "ab"); strcat(a, "cd"); strcat(a, "12345");`,
			"definite write of bytes [4,10) exceeds object size [8,8]"},
		{"strncat_appends_at_most_n", `char a[8]; strcpy(a, "ab"); strncat(a, "cdefgh", 2); strcat(a, "12345");`,
			"definite write of bytes [4,10) exceeds object size [8,8]"},
		{"sprintf_sets_format_length", `char a[8]; sprintf(a, "%d", 7); strcat(a, "1234567");`,
			"definite write of bytes [1,9) exceeds object size [8,8]"},
		{"memset_zero_truncates", `char a[8]; strcpy(a, "abc"); memset(a, 0, 8); strcat(a, "12345678");`,
			"definite write of bytes [0,9) exceeds object size [8,8]"},
		{"memset_nonzero_extends", `char a[8]; char b[16]; strcpy(b, "x"); memset(b, 'A', 10); strcpy(a, b);`,
			"possible write of bytes [0,+inf) exceeds object size [8,8]"},
		{"memset_nonzero_control", `char a[8]; char b[16]; strcpy(b, "x"); strcpy(a, b);`, ""},
		{"memcpy_forgets_length", `char a[8]; char b[4]; strcpy(a, "abc"); memcpy(a, b, 2); strcat(a, "123456");`,
			"possible write of bytes [0,+inf) exceeds object size [8,8]"},
		{"strlen_has_no_effect", `char a[8]; strcpy(a, "abc"); strlen(a); strcat(a, "123456");`,
			"definite write of bytes [3,10) exceeds object size [8,8]"},
		{"user_call_havocs_argument", `char a[8]; strcpy(a, "abc"); u(a); strcat(a, "123456");`,
			"possible write of bytes [0,+inf) exceeds object size [8,8]"},
		{"global_survives_no_effect_call", `strcpy(g, "abc"); strlen(g); strcat(g, "123456");`,
			"definite write of bytes [3,10) exceeds object size [8,8]"},
		{"unknown_call_havocs_global", `strcpy(g, "abc"); v(); strcat(g, "123456");`,
			"possible write of bytes [0,+inf) exceeds object size [8,8]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "char g[8];\nvoid u(char *p);\nvoid v(void);\nvoid f(void) {\n    " + tc.body + "\n}\n"
			var got []string
			for _, f := range analyzeSrc(t, src) {
				got = append(got, f.Severity.String()+" "+f.Msg)
			}
			if strings.Join(got, "\n") != tc.want {
				t.Fatalf("%s\ngot  %q\nwant %q", tc.body, got, tc.want)
			}
		})
	}
}
