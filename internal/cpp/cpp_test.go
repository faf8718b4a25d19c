package cpp

import (
	"strings"
	"testing"
)

// run preprocesses source with the given virtual headers and returns
// the result, failing the test on hard errors.
func run(t *testing.T, source string, headers map[string]string, opts Options) *Result {
	t.Helper()
	if headers != nil {
		opts.Open = func(path string) (string, bool) {
			s, ok := headers[path]
			return s, ok
		}
	}
	res, err := Preprocess("main.c", source, opts)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return res
}

// TestTorture pins the preprocessor against expected output for the
// classic hard cases: rescanning, stringize/paste, self-reference
// blocking, conditional nesting, and include cycles.
func TestTorture(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		headers map[string]string
		want    string // exact expected output
		errs    int    // expected diagnostic count (-1: any)
	}{
		{
			name: "identity/no directives",
			src:  "int main(void) {\n  char buf[10];\n  return 0;\n}\n",
			want: "int main(void) {\n  char buf[10];\n  return 0;\n}\n",
		},
		{
			name: "object macro",
			src:  "#define N 10\nchar buf[N];\n",
			want: "char buf[10];\n",
		},
		{
			name: "object macro rescanned",
			src:  "#define A B\n#define B C\n#define C 42\nint x = A;\n",
			want: "int x = 42;\n",
		},
		{
			name: "function macro",
			src:  "#define SQ(x) ((x)*(x))\nint y = SQ(3);\n",
			want: "int y = ((3)*(3));\n",
		},
		{
			name: "function macro args expand",
			src:  "#define N 8\n#define SQ(x) ((x)*(x))\nint y = SQ(N);\n",
			want: "int y = ((8)*(8));\n",
		},
		{
			name: "rescanning of expansion result",
			src:  "#define PLUS(a,b) ADD(a,b)\n#define ADD(a,b) ((a)+(b))\nint z = PLUS(1,2);\n",
			want: "int z = ((1)+(2));\n",
		},
		{
			name: "function macro without parens is not invoked",
			src:  "#define F(x) x\nint (*F)(int);\n",
			want: "int (*F)(int);\n",
		},
		{
			name: "invocation across newline",
			src:  "#define SQ(x) ((x)*(x))\nint y = SQ\n(4);\n",
			want: "int y = ((4)*(4));\n",
		},
		{
			name: "stringize",
			src:  "#define STR(x) #x\nconst char *s = STR(hello world);\n",
			want: "const char *s = \"hello world\";\n",
		},
		{
			name: "stringize preserves string escapes",
			src:  "#define STR(x) #x\nconst char *s = STR(\"a\\n\");\n",
			want: "const char *s = \"\\\"a\\\\n\\\"\";\n",
		},
		{
			name: "paste",
			src:  "#define GLUE(a,b) a##b\nint GLUE(foo,bar) = 1;\n",
			want: "int foobar = 1;\n",
		},
		{
			name: "paste then rescan",
			src:  "#define XY 99\n#define GLUE(a,b) a##b\nint v = GLUE(X,Y);\n",
			want: "int v = 99;\n",
		},
		{
			name: "paste numbers",
			src:  "#define CAT(a,b) a##b\nint n = CAT(1,2);\n",
			want: "int n = 12;\n",
		},
		{
			name: "stringize of macro arg is not pre-expanded",
			src:  "#define N 10\n#define STR(x) #x\nconst char *s = STR(N);\n",
			want: "const char *s = \"N\";\n",
		},
		{
			name: "recursive self-reference blocked",
			src:  "#define FOO FOO\nint FOO = 1;\n",
			want: "int FOO = 1;\n",
		},
		{
			name: "mutual recursion blocked",
			src:  "#define A B\n#define B A\nint A;\n",
			want: "int A;\n",
		},
		{
			name: "function-like self-reference blocked",
			src:  "#define F(x) F(x + 1)\nint y = F(0);\n",
			want: "int y = F(0 + 1);\n",
		},
		{
			name: "conditional taken",
			src:  "#define ON 1\n#if ON\nint a;\n#else\nint b;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "conditional not taken",
			src:  "#if 0\nint a;\n#else\nint b;\n#endif\n",
			want: "int b;\n",
		},
		{
			name: "elif chain",
			src:  "#define V 2\n#if V == 1\nint a;\n#elif V == 2\nint b;\n#elif V == 3\nint c;\n#else\nint d;\n#endif\n",
			want: "int b;\n",
		},
		{
			name: "nested conditionals",
			src:  "#define A 1\n#define B 0\n#if A\n#if B\nint ab;\n#else\nint anb;\n#endif\n#else\n#if B\nint nab;\n#endif\nint nb;\n#endif\n",
			want: "int anb;\n",
		},
		{
			name: "inactive branch directives do not define",
			src:  "#if 0\n#define X 5\n#endif\n#ifdef X\nint bad;\n#else\nint good;\n#endif\n",
			want: "int good;\n",
		},
		{
			name: "ifdef and undef",
			src:  "#define X\n#ifdef X\nint a;\n#endif\n#undef X\n#ifdef X\nint b;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "ifndef",
			src:  "#ifndef X\nint a;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "defined operator both spellings",
			src:  "#define X\n#if defined X && defined(X)\nint a;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "if arithmetic",
			src:  "#if (1 + 2*3 == 7) && (10 % 3 == 1) && (1 << 4) == 16 && -1 < 0\nint a;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "if ternary and unknown identifiers are zero",
			src:  "#if UNKNOWN ? 0 : 1\nint a;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "if char constant",
			src:  "#if 'A' == 65\nint a;\n#endif\n",
			want: "int a;\n",
		},
		{
			name: "line continuation in define",
			src:  "#define LONG \\\n  42\nint x = LONG;\n",
			want: "int x = 42;\n",
		},
		{
			name: "line continuation in code",
			src:  "int foo\\\nbar = 1;\n",
			want: "int foobar = 1;\n",
		},
		{
			name: "line continuation between tokens",
			src:  "int a \\\n= 1;\n",
			want: "int a = 1;\n",
		},
		{
			name: "include searched in dir",
			src:  "#include \"h.h\"\nint y = M;\n",
			headers: map[string]string{
				"h.h": "#define M 5\n",
			},
			want: "int y = 5;\n",
		},
		{
			name: "include emits header text",
			src:  "#include \"decl.h\"\nint main(void) { return f(); }\n",
			headers: map[string]string{
				"decl.h": "int f(void);\n",
			},
			want: "int f(void);\nint main(void) { return f(); }\n",
		},
		{
			name: "include cycle broken by guard",
			src:  "#include \"a.h\"\nint m;\n",
			headers: map[string]string{
				"a.h": "#ifndef A_H\n#define A_H\n#include \"b.h\"\nint a;\n#endif\n",
				"b.h": "#ifndef B_H\n#define B_H\n#include \"a.h\"\nint b;\n#endif\n",
			},
			want: "int b;\nint a;\nint m;\n",
		},
		{
			name: "include cycle broken by pragma once",
			src:  "#include \"a.h\"\nint m;\n",
			headers: map[string]string{
				"a.h": "#pragma once\n#include \"b.h\"\nint a;\n",
				"b.h": "#pragma once\n#include \"a.h\"\nint b;\n",
			},
			want: "int b;\nint a;\nint m;\n",
		},
		{
			name: "double include with guard collapses",
			src:  "#include \"g.h\"\n#include \"g.h\"\nint m;\n",
			headers: map[string]string{
				"g.h": "#ifndef G_H\n#define G_H\nint g;\n#endif\n",
			},
			want: "int g;\nint m;\n",
		},
		{
			name: "unguarded include cycle hits depth limit",
			src:  "#include \"loop.h\"\n",
			headers: map[string]string{
				"loop.h": "#include \"loop.h\"\nint l;\n",
			},
			errs: -1,
		},
		{
			name: "missing include passes through",
			src:  "#include <stdio.h>\nint main(void) { return 0; }\n",
			want: "#include <stdio.h>\nint main(void) { return 0; }\n",
		},
		{
			name: "variadic macro",
			src:  "#define CALL(f, ...) f(__VA_ARGS__)\nint x = CALL(add, 1, 2);\n",
			want: "int x = add(1, 2);\n",
		},
		{
			name: "empty macro leaves no token merge",
			src:  "#define E\nint a = 1 E + 2;\n",
			want: "int a = 1  + 2;\n",
		},
		{
			name: "error directive reports",
			src:  "#if 1\n#error boom\n#endif\nint a;\n",
			want: "int a;\n",
			errs: 1,
		},
		{
			name: "error in dead branch is silent",
			src:  "#if 0\n#error boom\n#endif\nint a;\n",
			want: "int a;\n",
		},
		{
			name: "comments pass through",
			src:  "/* keep */\nint a; // tail\n",
			want: "/* keep */\nint a; // tail\n",
		},
		{
			name: "macro inside comment not expanded",
			src:  "#define N 10\n/* N stays */\nint a = N; // N too\n",
			want: "/* N stays */\nint a = 10; // N too\n",
		},
		{
			name: "macro inside string not expanded",
			src:  "#define N 10\nconst char *s = \"N\";\n",
			want: "const char *s = \"N\";\n",
		},
		{
			name: "predefine via options",
			src:  "int v = WIDTH;\n",
			want: "int v = 640;\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{}
			if tc.name == "predefine via options" {
				opts.Defines = map[string]string{"WIDTH": "640"}
			}
			res := run(t, tc.src, tc.headers, opts)
			switch tc.errs {
			case -1:
				if len(res.Errors) == 0 {
					t.Fatalf("expected diagnostics, got none\noutput: %q", res.Text)
				}
			default:
				if len(res.Errors) != tc.errs {
					t.Fatalf("diagnostics = %v, want %d", res.Errors, tc.errs)
				}
			}
			if tc.want != "" || tc.errs == 0 {
				if res.Text != tc.want {
					t.Fatalf("output mismatch\n got: %q\nwant: %q", res.Text, tc.want)
				}
			}
		})
	}
}

// TestIdentityMap checks the core invariant behind the SAMATE
// differential: directive-free, macro-free input preprocesses to
// itself under one Direct segment covering the whole output.
func TestIdentityMap(t *testing.T) {
	src := "int main(void) {\n  char buf[16];\n  strcpy(buf, input); /* overflow */\n  return 0;\n}\n"
	res := run(t, src, nil, Options{})
	if res.Text != src {
		t.Fatalf("identity violated:\n got: %q\nwant: %q", res.Text, src)
	}
	segs := res.Map.segs
	if len(segs) != 1 {
		t.Fatalf("want a single Direct segment, got %d: %+v", len(segs), segs)
	}
	s := segs[0]
	if s.Kind != SegDirect || s.OutPos != 0 || s.OutEnd != len(src) || s.OrigPos != 0 || s.OrigEnd != len(src) {
		t.Fatalf("bad identity segment: %+v", s)
	}
}

// TestIncludesAndMissing checks bookkeeping of resolved and unresolved
// includes.
func TestIncludesAndMissing(t *testing.T) {
	res := run(t, "#include \"a.h\"\n#include <nope.h>\n#include \"a.h\"\n", map[string]string{
		"a.h": "#pragma once\nint a;\n",
	}, Options{})
	if len(res.Includes) != 1 || res.Includes[0] != "a.h" {
		t.Fatalf("Includes = %v", res.Includes)
	}
	if len(res.Missing) != 1 || res.Missing[0] != "nope.h" {
		t.Fatalf("Missing = %v", res.Missing)
	}
}

// TestIncludeDirSearch exercises the include-path order: quoted
// includes try the including file's directory before -I dirs.
func TestIncludeDirSearch(t *testing.T) {
	headers := map[string]string{
		"sys/dep.h": "int fromsys;\n",
		"dir/x.h":   "int fromdir;\n",
	}
	opts := Options{IncludeDirs: []string{"sys"}}
	opts.Open = func(p string) (string, bool) { s, ok := headers[p]; return s, ok }
	res, err := Preprocess("main.c", "#include <dep.h>\n#include \"dir/x.h\"\n", opts)
	if err != nil {
		t.Fatal(err)
	}
	want := "int fromsys;\nint fromdir;\n"
	if res.Text != want {
		t.Fatalf("got %q want %q", res.Text, want)
	}
}

// TestExpansionBudget ensures pathological macro chains terminate.
func TestExpansionBudget(t *testing.T) {
	var b strings.Builder
	b.WriteString("#define M0 x\n")
	for i := 1; i < 40; i++ {
		// Mi expands to two Mi-1: 2^40 tokens if unbounded.
		b.WriteString("#define M")
		b.WriteString(itoa(i))
		b.WriteString(" M")
		b.WriteString(itoa(i - 1))
		b.WriteString(" M")
		b.WriteString(itoa(i - 1))
		b.WriteString("\n")
	}
	b.WriteString("int v = M39;\n")
	res := run(t, b.String(), nil, Options{MaxExpansions: 1000})
	if len(res.Errors) == 0 {
		t.Fatal("expected a budget diagnostic")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var d []byte
	for i > 0 {
		d = append([]byte{byte('0' + i%10)}, d...)
		i /= 10
	}
	return string(d)
}

// TestBuiltinLineFile pins __LINE__ and __FILE__.
func TestBuiltinLineFile(t *testing.T) {
	res := run(t, "int l = __LINE__;\nconst char *f = __FILE__;\n", nil, Options{})
	want := "int l = 1;\nconst char *f = \"main.c\";\n"
	if res.Text != want {
		t.Fatalf("got %q want %q", res.Text, want)
	}
}

// TestRedefinition: identical redefinition is quiet, conflicting is
// diagnosed (and the newest wins).
func TestRedefinition(t *testing.T) {
	res := run(t, "#define N 10\n#define N 10\nint a[N];\n", nil, Options{})
	if len(res.Errors) != 0 {
		t.Fatalf("benign redefinition diagnosed: %v", res.Errors)
	}
	res = run(t, "#define N 10\n#define N 20\nint a[N];\n", nil, Options{})
	if len(res.Errors) != 1 {
		t.Fatalf("conflicting redefinition not diagnosed: %v", res.Errors)
	}
	if res.Text != "int a[20];\n" {
		t.Fatalf("got %q", res.Text)
	}
}
