// Package backend defines the pluggable repair-dialect layer: the safe
// library a fix targets is a RepairBackend value, not a constant baked
// into the transformation. The paper's Table I already catalogues the
// wider space of safe alternatives (glib, BSD strlcpy, ISO/IEC TR 24731
// "_s" functions, StrSafe); this package makes the choice among them a
// per-run option so one analysis can emit many fix dialects. It also
// holds the library catalog (Library) that every analysis reads.
//
// Three backends ship:
//
//   - glib (the default): g_strlcpy/g_strlcat/g_snprintf/g_vsnprintf —
//     the dialect the paper uses, byte-identical to the historical
//     output and pinned by the differential suite.
//   - bsd: strlcpy/strlcat with C99 snprintf/vsnprintf and a clamped
//     memcpy where BSD has no analogue.
//   - c11k: C11 Annex K strcpy_s/strcat_s/sprintf_s/vsprintf_s/memcpy_s
//     /gets_s, whose size argument precedes the source, so argument
//     reordering and errno_t result conventions are exercised for real.
package backend

import (
	"fmt"
	"strings"

	"repro/internal/stralloc"
)

// Kind selects the replacement mechanism for one unsafe function
// (Section III-B splits the handled functions into three mechanisms).
type Kind int

const (
	// KindRename renames the callee and inserts the destination-size
	// argument (strcpy, strcat, sprintf, vsprintf; memcpy under c11k).
	KindRename Kind = iota + 1
	// KindGets replaces gets with a bounded line reader (fgets or
	// gets_s): the size argument is inserted and, when the reader keeps
	// the trailing newline, a stripping sequence follows the statement.
	KindGets
	// KindClamp keeps the callee and clamps its length argument in place
	// (memcpy where the dialect has no bounded analogue).
	KindClamp
)

// Replacement is the operational rule one dialect applies for one
// unsafe function: which callee to emit, where the destination-size
// argument goes, and what bookkeeping the rewrite needs.
type Replacement struct {
	// Unsafe / Safe name the original and replacement callees.
	Unsafe string
	Safe   string
	// Kind selects the rewrite mechanism.
	Kind Kind
	// SizeAfterArg is the 0-based index of the original argument after
	// which the destination-size argument is inserted (KindRename and
	// KindGets). glib and BSD string functions append it after the
	// source (index 1); the Annex K _s functions take it before the
	// source (index 0), which reorders the argument list.
	SizeAfterArg int
	// MinArgs is the least original-argument count the rewrite is
	// well-formed for; calls with fewer decline with an
	// unsupported-form failure instead of emitting garbage.
	MinArgs int
	// ExtraArgs are appended after the size argument (KindGets: fgets
	// needs the stream, so ExtraArgs is ["stdin"]; gets_s needs none).
	ExtraArgs []string
	// StripNewline marks a bounded reader that keeps the trailing
	// newline gets discards (fgets), so the transformer must append the
	// newline-stripping sequence. gets_s discards it itself.
	StripNewline bool
	// NeedsLib reports that the replacement callee lives outside the
	// hosted C standard library, so the output needs the backend's
	// prototypes (and its link requirement) to build.
	NeedsLib bool
}

// Backend is one complete safe-function dialect: a named, closed table
// of replacement rules plus the support declarations its output needs.
// Implementations are immutable and safe for concurrent use.
type Backend interface {
	// Name is the canonical backend name ("glib", "bsd", "c11k").
	Name() string
	// Lookup returns the dialect's rule for an unsafe function.
	Lookup(unsafe string) (Replacement, bool)
	// UnsafeFunctions lists the unsafe functions the dialect replaces,
	// in a stable order.
	UnsafeFunctions() []string
	// Prototypes returns the C declarations a transformed file needs
	// when the dialect's headers are unavailable; emitted by
	// EmitSupport and `cfix -support`.
	Prototypes() string
}

// dialect is the table-driven Backend implementation all three shipped
// backends use.
type dialect struct {
	name, protos string
	order        []string
	rules        map[string]Replacement
}

func (d *dialect) Name() string       { return d.name }
func (d *dialect) Prototypes() string { return d.protos }

func (d *dialect) Lookup(unsafe string) (Replacement, bool) {
	r, ok := d.rules[unsafe]
	return r, ok
}

func (d *dialect) UnsafeFunctions() []string {
	return append([]string(nil), d.order...)
}

// _order is the shared stable ordering of the unsafe functions every
// dialect replaces (the six functions of Section III-B).
var _order = []string{"strcpy", "strcat", "sprintf", "vsprintf", "memcpy", "gets"}

// Glib is the paper's dialect and the default: glib-style safe string
// functions, syntactically closest to the originals so per-instance
// changes stay minimal (Section II-A3). Its output is byte-identical
// to the historical hard-coded transformation.
var Glib Backend = &dialect{
	name:   "glib",
	protos: glibPrototypes(),
	order:  _order,
	rules: map[string]Replacement{
		"strcpy":   {Unsafe: "strcpy", Safe: "g_strlcpy", Kind: KindRename, SizeAfterArg: 1, MinArgs: 2, NeedsLib: true},
		"strcat":   {Unsafe: "strcat", Safe: "g_strlcat", Kind: KindRename, SizeAfterArg: 1, MinArgs: 2, NeedsLib: true},
		"sprintf":  {Unsafe: "sprintf", Safe: "g_snprintf", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2, NeedsLib: true},
		"vsprintf": {Unsafe: "vsprintf", Safe: "g_vsnprintf", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2, NeedsLib: true},
		"memcpy":   {Unsafe: "memcpy", Safe: "memcpy", Kind: KindClamp, MinArgs: 3},
		"gets":     {Unsafe: "gets", Safe: "fgets", Kind: KindGets, SizeAfterArg: 0, MinArgs: 1, ExtraArgs: []string{"stdin"}, StripNewline: true},
	},
}

// BSD is the strlcpy/strlcat dialect (OpenBSD, libbsd on glibc
// systems). BSD has no bounded sprintf of its own beyond C99, so the
// printf family maps to snprintf/vsnprintf, and memcpy keeps the
// clamped form.
var BSD Backend = &dialect{
	name:   "bsd",
	protos: bsdPrototypes(),
	order:  _order,
	rules: map[string]Replacement{
		"strcpy":   {Unsafe: "strcpy", Safe: "strlcpy", Kind: KindRename, SizeAfterArg: 1, MinArgs: 2, NeedsLib: true},
		"strcat":   {Unsafe: "strcat", Safe: "strlcat", Kind: KindRename, SizeAfterArg: 1, MinArgs: 2, NeedsLib: true},
		"sprintf":  {Unsafe: "sprintf", Safe: "snprintf", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2},
		"vsprintf": {Unsafe: "vsprintf", Safe: "vsnprintf", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2},
		"memcpy":   {Unsafe: "memcpy", Safe: "memcpy", Kind: KindClamp, MinArgs: 3},
		"gets":     {Unsafe: "gets", Safe: "fgets", Kind: KindGets, SizeAfterArg: 0, MinArgs: 1, ExtraArgs: []string{"stdin"}, StripNewline: true},
	},
}

// C11K is the C11 Annex K (ISO/IEC TR 24731-1) dialect: the _s
// functions take the destination size immediately after the
// destination — before the source — so this backend exercises argument
// reordering, and their errno_t results and runtime constraints are
// modelled by the checked interpreter. gets_s discards the trailing
// newline itself, so no stripping sequence is emitted.
var C11K Backend = &dialect{
	name:   "c11k",
	protos: c11kPrototypes(),
	order:  _order,
	rules: map[string]Replacement{
		"strcpy":   {Unsafe: "strcpy", Safe: "strcpy_s", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2, NeedsLib: true},
		"strcat":   {Unsafe: "strcat", Safe: "strcat_s", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2, NeedsLib: true},
		"sprintf":  {Unsafe: "sprintf", Safe: "sprintf_s", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2, NeedsLib: true},
		"vsprintf": {Unsafe: "vsprintf", Safe: "vsprintf_s", Kind: KindRename, SizeAfterArg: 0, MinArgs: 2, NeedsLib: true},
		"memcpy":   {Unsafe: "memcpy", Safe: "memcpy_s", Kind: KindRename, SizeAfterArg: 0, MinArgs: 3, NeedsLib: true},
		"gets":     {Unsafe: "gets", Safe: "gets_s", Kind: KindGets, SizeAfterArg: 0, MinArgs: 1, NeedsLib: true},
	},
}

// _registry maps canonical names to backends, in Names() order.
var _registry = []Backend{Glib, BSD, C11K}

// Default returns the default backend (glib, the paper's dialect).
func Default() Backend { return Glib }

// Names returns the canonical backend names in a stable order.
func Names() []string {
	out := make([]string, len(_registry))
	for i, b := range _registry {
		out[i] = b.Name()
	}
	return out
}

// Get resolves a backend name; "" selects the default. Unknown names
// error with the valid set listed, for flag validation and request
// rejection.
func Get(name string) (Backend, error) {
	s := strings.TrimSpace(name)
	if s == "" {
		return Default(), nil
	}
	for _, b := range _registry {
		if b.Name() == s {
			return b, nil
		}
	}
	return nil, fmt.Errorf("unknown repair backend %q (valid: %s)", s, strings.Join(Names(), ", "))
}

// Canonical validates a backend name and returns its canonical form
// ("" resolves to the default's name) — the form cache fingerprints
// and wire responses use.
func Canonical(name string) (string, error) {
	b, err := Get(name)
	if err != nil {
		return "", err
	}
	return b.Name(), nil
}

// SupportUnit is one block of C support code a transformed file may
// need prepended: the stralloc runtime (STR's safe type) or a
// backend's safe-function prototypes. Both are declared through this
// one mechanism so EmitSupport and `cfix -support` stay uniform
// across dialects.
type SupportUnit struct {
	// Name labels the unit ("stralloc", "<backend>-prototypes").
	Name string
	// Source is the C text, without a trailing separator; emitters join
	// units with a newline.
	Source string
}

// SupportUnits assembles the support blocks for one transformed file
// in emission order: the stralloc runtime first (STR may introduce
// calls the prototypes' functions never see), then the backend's
// prototypes.
func SupportUnits(needStralloc, needLib bool, be Backend) []SupportUnit {
	if be == nil {
		be = Default()
	}
	var units []SupportUnit
	if needStralloc {
		units = append(units, SupportUnit{Name: "stralloc", Source: stralloc.FullSource()})
	}
	if needLib {
		units = append(units, SupportUnit{Name: be.Name() + "-prototypes", Source: be.Prototypes()})
	}
	return units
}

// glibPrototypes matches the historical glib prototype text
// byte for byte: the glib dialect's emitted support text is pinned by
// the differential suite.
func glibPrototypes() string {
	var sb strings.Builder
	sb.WriteString("/* Prototypes for glib-style safe string functions (link with -lglib-2.0\n")
	sb.WriteString("   or provide the bundled implementations). */\n")
	sb.WriteString("unsigned long g_strlcpy(char *dst, const char *src, unsigned long dst_size);\n")
	sb.WriteString("unsigned long g_strlcat(char *dst, const char *src, unsigned long dst_size);\n")
	sb.WriteString("int g_snprintf(char *string, unsigned long n, const char *format, ...);\n")
	sb.WriteString("int g_vsnprintf(char *string, unsigned long n, const char *format, void *args);\n")
	sb.WriteString("unsigned long malloc_usable_size(void *ptr);\n")
	return sb.String()
}

func bsdPrototypes() string {
	var sb strings.Builder
	sb.WriteString("/* Prototypes for BSD safe string functions (native on the BSDs; link\n")
	sb.WriteString("   with -lbsd on glibc systems or provide the bundled implementations).\n")
	sb.WriteString("   snprintf/vsnprintf are C99 and need no declaration here. */\n")
	sb.WriteString("unsigned long strlcpy(char *dst, const char *src, unsigned long dst_size);\n")
	sb.WriteString("unsigned long strlcat(char *dst, const char *src, unsigned long dst_size);\n")
	sb.WriteString("unsigned long malloc_usable_size(void *ptr);\n")
	return sb.String()
}

func c11kPrototypes() string {
	var sb strings.Builder
	sb.WriteString("/* Prototypes for the C11 Annex K (ISO/IEC TR 24731-1) bounds-checked\n")
	sb.WriteString("   functions. On a conforming implementation, define\n")
	sb.WriteString("   __STDC_WANT_LIB_EXT1__ and include the standard headers instead. */\n")
	sb.WriteString("typedef int errno_t;\n")
	sb.WriteString("typedef unsigned long rsize_t;\n")
	sb.WriteString("errno_t strcpy_s(char *dst, rsize_t dst_size, const char *src);\n")
	sb.WriteString("errno_t strcat_s(char *dst, rsize_t dst_size, const char *src);\n")
	sb.WriteString("errno_t strncpy_s(char *dst, rsize_t dst_size, const char *src, rsize_t num);\n")
	sb.WriteString("errno_t memcpy_s(void *dst, rsize_t dst_size, const void *src, rsize_t num);\n")
	sb.WriteString("int sprintf_s(char *str, rsize_t str_size, const char *format, ...);\n")
	sb.WriteString("int vsprintf_s(char *str, rsize_t str_size, const char *format, void *args);\n")
	sb.WriteString("char *gets_s(char *dst, rsize_t dst_size);\n")
	sb.WriteString("unsigned long malloc_usable_size(void *ptr);\n")
	return sb.String()
}
