// Package samate generates a synthetic stand-in for the buffer-overflow
// slice of NIST SAMATE's Juliet Test Suite 1.2, the benchmark of Section
// IV-A (Table III).
//
// Substitution note (see DESIGN.md): the real Juliet suite is itself
// mechanically generated from flaw templates crossed with control-flow
// variants. This generator reproduces that structure for the six CWEs the
// paper evaluates — every program has a good function (bounded operation,
// prints its result) and a bad function (the same operation overflowing),
// wrapped in one of the suite-style control-flow variants. Program counts
// per CWE match Table III exactly.
package samate

import (
	"fmt"
	"strings"
)

// TableIIICounts reproduces the "Total C Programs" column of Table III.
var TableIIICounts = map[int]int{
	121: 1877,
	122: 890,
	124: 680,
	126: 416,
	127: 624,
	242: 18,
}

// SLRApplicableCounts reproduces the SLR column of Table III: programs
// whose flaw uses one of the six unsafe functions.
var SLRApplicableCounts = map[int]int{
	121: 1096,
	122: 644,
	242: 18,
}

// CWEs lists the six CWEs in Table III order.
var CWEs = []int{121, 122, 124, 126, 127, 242}

// CWENames gives the Table III descriptions.
var CWENames = map[int]string{
	121: "Stack Based Overflow",
	122: "Heap Based Overflow",
	124: "Buffer Underwrite",
	126: "Buffer Overread",
	127: "Buffer Underread",
	242: "Use of Inherently Dangerous Function",
}

// Program is one generated benchmark program.
type Program struct {
	ID     string
	CWE    int
	Source string
	// SLRTargeted reports that the flaw goes through an unsafe library
	// function SLR replaces.
	SLRTargeted bool
	// STRTargeted reports that the program contains STR-eligible local
	// char buffers.
	STRTargeted bool
	// Sink names the flaw mechanism (for reporting).
	Sink string
	// Flow names the control-flow variant.
	Flow string
}

// LOC returns the program's line count.
func (p *Program) LOC() int { return strings.Count(p.Source, "\n") + 1 }

// flowVariant wraps the flaw statements in a Juliet-style control-flow
// shape.
type flowVariant struct {
	name string
	wrap func(body, indent string) string
}

var _flows = []flowVariant{
	{"01_direct", func(body, ind string) string { return body }},
	{"02_if_1", func(body, ind string) string {
		return ind + "if (1) {\n" + body + "\n" + ind + "}"
	}},
	{"03_if_global", func(body, ind string) string {
		return ind + "if (GLOBAL_CONST_TRUE) {\n" + body + "\n" + ind + "}"
	}},
	{"04_if_static_fn", func(body, ind string) string {
		return ind + "if (static_returns_true()) {\n" + body + "\n" + ind + "}"
	}},
	{"05_while_1_break", func(body, ind string) string {
		return ind + "while (1) {\n" + body + "\n" + ind + "    break;\n" + ind + "}"
	}},
	{"06_for_once", func(body, ind string) string {
		return ind + "{\n" + ind + "    int flow_i;\n" + ind + "    for (flow_i = 0; flow_i < 1; flow_i++) {\n" +
			body + "\n" + ind + "    }\n" + ind + "}"
	}},
	{"07_do_while_0", func(body, ind string) string {
		return ind + "do {\n" + body + "\n" + ind + "} while (0);"
	}},
	{"08_switch_7", func(body, ind string) string {
		return ind + "switch (7) {\n" + ind + "case 7:\n" + body + "\n" + ind + "    break;\n" +
			ind + "default:\n" + ind + "    break;\n" + ind + "}"
	}},
	{"09_goto", func(body, ind string) string {
		return ind + "goto flow_sink;\n" + ind + "flow_sink:\n" + body
	}},
	{"10_if_else", func(body, ind string) string {
		return ind + "if (GLOBAL_CONST_TRUE) {\n" + body + "\n" + ind + "} else {\n" +
			ind + "    printf(\"dead\\n\");\n" + ind + "}"
	}},
	{"11_nested_if", func(body, ind string) string {
		return ind + "if (1) {\n" + ind + "    if (1) {\n" + body + "\n" + ind + "    }\n" + ind + "}"
	}},
	{"12_while_flag", func(body, ind string) string {
		return ind + "{\n" + ind + "    int flow_flag = 1;\n" + ind + "    while (flow_flag) {\n" +
			body + "\n" + ind + "        flow_flag = 0;\n" + ind + "    }\n" + ind + "}"
	}},
}

// sink produces the declarations and flaw/fixed statement bodies for one
// mechanism. size is the destination capacity; over is the out-of-bounds
// reach used by the bad function.
type sink struct {
	name string
	slr  bool
	str  bool
	// gen emits (decls, goodBody, badBody, print). Bodies are the lines
	// wrapped by the flow variant; decls and print stay outside it.
	gen func(size, over int) (decls, good, bad, print string)
	// support optionally emits file-scope helper code (Juliet's
	// cross-function data-flow variants). The placeholder __HELPER__ in
	// support and in gen's outputs is replaced with a program-unique
	// function name.
	support func(size, over int) string
}

// preamble is shared by all programs.
const _preamble = `/* Synthetic Juliet-style benchmark (see internal/samate). */
int GLOBAL_CONST_TRUE = 1;
int GLOBAL_CONST_FALSE = 0;
static int static_returns_true(void) { return 1; }
`

// buildProgram assembles a complete translation unit.
func buildProgram(id string, cwe int, s sink, fl flowVariant, size, over int) Program {
	decls, good, bad, print := s.gen(size, over)
	helper := id + "_prepare"
	var supportCode string
	if s.support != nil {
		supportCode = strings.ReplaceAll(s.support(size, over), "__HELPER__", helper)
		decls = strings.ReplaceAll(decls, "__HELPER__", helper)
		good = strings.ReplaceAll(good, "__HELPER__", helper)
		bad = strings.ReplaceAll(bad, "__HELPER__", helper)
	}
	indent := "    "
	goodBody := fl.wrap(good, indent)
	badBody := fl.wrap(bad, indent)

	var sb strings.Builder
	sb.WriteString(_preamble)
	if supportCode != "" {
		sb.WriteString("\n" + supportCode)
	}
	fmt.Fprintf(&sb, "\n/* %s: CWE-%d %s, sink=%s, flow=%s */\n", id, cwe, CWENames[cwe], s.name, fl.name)
	fmt.Fprintf(&sb, "void %s_good(void) {\n%s\n%s\n%s\n}\n", id, decls, goodBody, print)
	fmt.Fprintf(&sb, "\nvoid %s_bad(void) {\n%s\n%s\n%s\n}\n", id, decls, badBody, print)
	fmt.Fprintf(&sb, "\nint main(void) {\n    %s_good();\n    %s_bad();\n    return 0;\n}\n", id, id)

	return Program{
		ID:          id,
		CWE:         cwe,
		Source:      sb.String(),
		SLRTargeted: s.slr,
		STRTargeted: s.str,
		Sink:        s.name,
		Flow:        fl.name,
	}
}

// --- CWE-121: stack-based overflow -----------------------------------------

var _sinks121 = []sink{
	{
		name: "strcpy", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char src[%d];
    char *dst;
    memset(src, 'A', %d);
    src[%d] = '\0';
    dst = buf;`, size, size+over+2, size+over, size+over)
			good := fmt.Sprintf("    strncpy(dst, src, %d);\n    buf[%d] = '\\0';", size-1, size-1)
			bad := "    strcpy(dst, src);"
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
	{
		name: "strcat", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char src[%d];
    memset(src, 'B', %d);
    src[%d] = '\0';
    buf[0] = 'x';
    buf[1] = '\0';`, size, size+over+2, size+over, size+over)
			good := fmt.Sprintf("    strncat(buf, src, %d);", size-3)
			bad := "    strcat(buf, src);"
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
	{
		name: "sprintf", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char src[%d];
    memset(src, 'C', %d);
    src[%d] = '\0';`, size, size+over+2, size+over, size+over)
			good := fmt.Sprintf("    snprintf(buf, %d, \"%%s\", src);", size)
			bad := "    sprintf(buf, \"%s\", src);"
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
	{
		name: "memcpy", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char src[%d];
    memset(src, 'D', %d);
    src[%d] = '\0';`, size, size+over+2, size+over+1, size+over+1)
			good := fmt.Sprintf("    memcpy(buf, src, %d);\n    buf[%d] = '\\0';", size-1, size-1)
			bad := fmt.Sprintf("    memcpy(buf, src, %d);\n    buf[%d] = '\\0';", size+over, size-1)
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
	{
		// Juliet cross-function flow: the attack data is prepared by a
		// static helper, so the source buffer's contents are only known
		// interprocedurally; the destination stays local and SLR's
		// Algorithm 1 still sizes it.
		name: "strcpy_fn_source", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char src[%d];
    __HELPER__(src, %d);`, size, size+over+2, size+over)
			good := fmt.Sprintf("    strncpy(buf, src, %d);\n    buf[%d] = '\\0';", size-1, size-1)
			bad := "    strcpy(buf, src);"
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
		support: func(size, over int) string {
			return `static void __HELPER__(char *out, int n) {
    int i;
    for (i = 0; i < n; i++) { out[i] = 'R'; }
    out[n] = '\0';
}
`
		},
	},
	{
		name: "index_write", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    int i;
    for (i = 0; i < %d; i++) { buf[i] = 'E'; }
    buf[%d] = '\0';`, size, size-1, size-1)
			good := fmt.Sprintf("    buf[%d] = 'Z';", size-2)
			bad := fmt.Sprintf("    buf[%d] = 'Z';", size+over-1)
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
	{
		// Juliet's signature idiom: a char* aliasing a stack buffer, with
		// the flaw expressed through the pointer. Exercises STR pattern 5
		// (buffer-to-buffer assignment shares the stralloc) end to end.
		name: "alias_index_write", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char dataBuffer[%d];
    char *data;
    memset(dataBuffer, 'P', %d);
    dataBuffer[%d] = '\0';
    data = dataBuffer;`, size, size-1, size-1)
			good := "    data[1] = 'Z';"
			bad := fmt.Sprintf("    data[%d] = 'Z';", size+over-1)
			print := `    printf("%s\n", dataBuffer);`
			return decls, good, bad, print
		},
	},
	{
		name: "loop_fill", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    int i;`, size)
			good := fmt.Sprintf(`    for (i = 0; i < %d; i++) { buf[i] = 'F'; }
    buf[%d] = '\0';`, size-1, size-1)
			bad := fmt.Sprintf(`    for (i = 0; i < %d; i++) { buf[i] = 'F'; }
    buf[%d] = '\0';`, size+over, size-1)
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
}

// --- CWE-122: heap-based overflow -------------------------------------------

var _sinks122 = []sink{
	{
		name: "strcpy_heap", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char *buf;
    char src[%d];
    buf = malloc(%d);
    memset(src, 'G', %d);
    src[%d] = '\0';`, size+over+2, size, size+over, size+over)
			good := fmt.Sprintf("    strncpy(buf, src, %d);\n    buf[%d] = '\\0';", size-1, size-1)
			bad := "    strcpy(buf, src);"
			print := "    printf(\"%s\\n\", buf);\n    free(buf);"
			return decls, good, bad, print
		},
	},
	{
		name: "memcpy_heap", slr: true, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char *buf;
    char src[%d];
    buf = malloc(%d);
    memset(src, 'H', %d);
    src[%d] = '\0';`, size+over+2, size, size+over+1, size+over+1)
			good := fmt.Sprintf("    memcpy(buf, src, %d);\n    buf[%d] = '\\0';", size-1, size-1)
			bad := fmt.Sprintf("    memcpy(buf, src, %d);\n    buf[%d] = '\\0';", size+over, size-1)
			print := "    printf(\"%s\\n\", buf);\n    free(buf);"
			return decls, good, bad, print
		},
	},
	{
		name: "heap_index_write", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			// The STR-eligible variant keeps a stack mirror so STR has a
			// local array target; the heap write itself goes through a
			// local char pointer assigned from malloc (pattern 3).
			decls := fmt.Sprintf(`    char *buf;
    int i;
    buf = malloc(%d);
    for (i = 0; i < %d; i++) { buf[i] = 'I'; }
    buf[%d] = '\0';`, size, size-1, size-1)
			good := fmt.Sprintf("    buf[%d] = 'Z';", size-2)
			bad := fmt.Sprintf("    buf[%d] = 'Z';", size+over-1)
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
}

// --- CWE-124: buffer underwrite ----------------------------------------------

var _sinks124 = []sink{
	{
		name: "ptr_decrement_write", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    memset(buf, 'J', %d);
    buf[%d] = '\0';`, size, size-1, size-1)
			good := "    buf[0] = 'Z';"
			bad := fmt.Sprintf(`    {
        char *p;
        p = buf;
        p -= %d;
        *p = 'Z';
    }`, over)
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
	{
		name: "negative_index_write", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    int idx;
    memset(buf, 'K', %d);
    buf[%d] = '\0';`, size, size-1, size-1)
			good := "    idx = 1;\n    buf[idx] = 'Z';"
			bad := fmt.Sprintf("    idx = -%d;\n    buf[idx] = 'Z';", over)
			print := `    printf("%s\n", buf);`
			return decls, good, bad, print
		},
	},
}

// --- CWE-126: buffer overread -------------------------------------------------

var _sinks126 = []sink{
	{
		name: "index_overread", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char out[4];
    char c;
    memset(buf, 'L', %d);
    buf[%d] = '\0';`, size, size-1, size-1)
			good := "    c = buf[2];"
			bad := fmt.Sprintf("    c = buf[%d];", size+over-1)
			print := "    out[0] = c;\n    out[1] = '\\0';\n    printf(\"%d\\n\", out[0]);"
			return decls, good, bad, print
		},
	},
	{
		name: "deref_overread", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char c;
    memset(buf, 'M', %d);
    buf[%d] = '\0';`, size, size-1, size-1)
			good := "    c = *(buf + 1);"
			bad := fmt.Sprintf("    c = *(buf + %d);", size+over-1)
			print := `    printf("%d\n", c);`
			return decls, good, bad, print
		},
	},
}

// --- CWE-127: buffer underread --------------------------------------------------

var _sinks127 = []sink{
	{
		name: "ptr_decrement_read", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    char c;
    memset(buf, 'N', %d);
    buf[%d] = '\0';`, size, size-1, size-1)
			good := "    c = *(buf + 1);"
			bad := fmt.Sprintf("    c = *(buf - %d);", over)
			print := `    printf("%d\n", c);`
			return decls, good, bad, print
		},
	},
	{
		name: "negative_index_read", slr: false, str: true,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf(`    char buf[%d];
    int idx;
    char c;
    memset(buf, 'O', %d);
    buf[%d] = '\0';`, size, size-1, size-1)
			good := "    idx = 2;\n    c = buf[idx];"
			bad := fmt.Sprintf("    idx = -%d;\n    c = buf[idx];", over)
			print := `    printf("%d\n", c);`
			return decls, good, bad, print
		},
	},
}

// --- CWE-242: gets -----------------------------------------------------------

var _sinks242 = []sink{
	{
		name: "gets", slr: true, str: false,
		gen: func(size, over int) (string, string, string, string) {
			decls := fmt.Sprintf("    char dest[%d];", size)
			good := fmt.Sprintf("    fgets(dest, %d, stdin);", size)
			bad := "    gets(dest);"
			print := `    printf("%s\n", dest);`
			return decls, good, bad, print
		},
	},
}

var _sinksByCWE = map[int][]sink{
	121: _sinks121,
	122: _sinks122,
	124: _sinks124,
	126: _sinks126,
	127: _sinks127,
	242: _sinks242,
}

// sizes and overflow amounts crossed with sinks and flows.
var _sizes = []int{8, 10, 16, 24, 32, 48, 64}
var _overs = []int{2, 6, 14, 40}

// Generate returns exactly n programs for the CWE, enumerated
// deterministically over (sink, flow, size, over) in that nesting order.
// For CWEs where Table III reports an SLR-applicable subset, the SLR
// sinks are enumerated first so the subset matches the paper's counts.
func Generate(cwe, n int) []Program {
	sinks := _sinksByCWE[cwe]
	if len(sinks) == 0 {
		return nil
	}
	// Order: SLR sinks first.
	ordered := make([]sink, 0, len(sinks))
	for _, s := range sinks {
		if s.slr {
			ordered = append(ordered, s)
		}
	}
	for _, s := range sinks {
		if !s.slr {
			ordered = append(ordered, s)
		}
	}
	slrTarget := SLRApplicableCounts[cwe]

	out := make([]Program, 0, n)
	seq := 0
	emit := func(s sink, fl flowVariant, size, over int) bool {
		seq++
		id := fmt.Sprintf("CWE%d_v%04d", cwe, seq)
		out = append(out, buildProgram(id, cwe, s, fl, size, over))
		return len(out) >= n
	}
	// First pass: SLR sinks up to the Table III SLR count (when defined).
	if slrTarget > 0 {
		done := false
		for !done {
			progress := false
			for _, s := range ordered {
				if !s.slr {
					continue
				}
				for _, fl := range _flows {
					for _, size := range _sizes {
						for _, over := range _overs {
							if len(out) >= slrTarget || len(out) >= n {
								done = true
								break
							}
							progress = true
							if emit(s, fl, size, over) {
								done = true
							}
						}
						if done {
							break
						}
					}
					if done {
						break
					}
				}
				if done {
					break
				}
			}
			if !progress {
				break
			}
			if len(out) >= slrTarget {
				break
			}
		}
	}
	// Remaining programs from the full (or non-SLR) sink set, cycling the
	// combination space as often as needed.
	for len(out) < n {
		before := len(out)
		for _, s := range ordered {
			if slrTarget > 0 && s.slr && len(out) >= slrTarget {
				// SLR quota met: use the STR-only sinks for the rest so the
				// Table III split holds.
				continue
			}
			for _, fl := range _flows {
				for _, size := range _sizes {
					for _, over := range _overs {
						if len(out) >= n {
							return out
						}
						emit(s, fl, size, over)
					}
				}
			}
		}
		if len(out) == before {
			// No eligible sinks (should not happen); bail out.
			break
		}
	}
	return out
}

// GenerateAll produces the full Table III corpus: 4,505 programs.
func GenerateAll() map[int][]Program {
	out := make(map[int][]Program, len(TableIIICounts))
	for cwe, n := range TableIIICounts {
		out[cwe] = Generate(cwe, n)
	}
	return out
}
