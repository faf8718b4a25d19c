package backend

import (
	"slices"
	"strings"
)

// Func is the catalog's model of one C library function. The may-modify
// guard, STR, both lint oracles and SLR all read it, so they cannot
// disagree; a function absent from the catalog is user-defined or
// unknown.
type Func struct {
	// Writes lists the 0-based argument positions it writes through.
	Writes []int
	// NoEffect reports that the call changes nothing the lint oracles
	// track beyond the contents of the buffers at Writes: no global and
	// no variable passed by address.
	NoEffect bool
	// STR is STR's treatment of a candidate buffer passed to it.
	STR StrClass
	// Result is the function's return-value convention.
	Result Result
	// Like names the unsafe function whose dialect rule the lint fix
	// text suggests for this one (stpcpy is repaired like strcpy); ""
	// means the function itself.
	Like string
	// Sizes lists the argument positions that size the fresh allocation
	// the function returns: the integer oracle's CWE-680 sinks.
	Sizes []int
}

// StrClass is STR's treatment of a library call that receives a
// candidate buffer (Table II rows 16-17 and precondition 3 of Section
// II-B2).
type StrClass int

const (
	// StrPlain: a position the function only reads is rewritten to
	// buf->s; STR declines a variable the function writes through.
	StrPlain StrClass = iota
	// StrMapped: the call has a stralloc rewrite when the buffer is its
	// destination (strcpy becomes stralloc_copys, strlen buf->len).
	StrMapped
	// StrUnsupported: precondition 3 declines a variable passed at any
	// position.
	StrUnsupported
	// StrSafe: a repair dialect's bounded function, or
	// malloc_usable_size. Argument 0 is the buffer the call bounds, by
	// writing through it or by measuring it, so STR declines that
	// variable and reads the other positions like StrPlain.
	StrSafe
)

// Result is a library function's return-value convention. SLR reads it:
// a call whose value the program uses keeps its meaning only when the
// replacement callee returns a pointer, as every replaced pointer
// returner does (fgets for gets, a clamped memcpy for memcpy).
type Result int

const (
	// ResultOther: a comparison, a status or no value.
	ResultOther Result = iota
	// ResultPointer: a pointer into the destination, or NULL.
	ResultPointer
	// ResultLength: a length or count (strlcpy's is the untruncated one).
	ResultLength
	// ResultErrno: an errno_t, zero on success (TR 24731-1's _s copies).
	ResultErrno
)

// _catalog holds every library function the repository models, the
// bounded functions the three dialects emit included; the TR 24731-1
// report fixes the _s functions' write and return contracts. Each row
// gives one model and the functions that share it. _allocators names
// the entries with Sizes.
var _catalog, _allocators = func() (map[string]Func, []string) {
	m := make(map[string]Func)
	var allocs []string
	for _, row := range []struct {
		f     Func
		names string
	}{
		// Unsafe string and memory writers (Sections II-A and II-B).
		{Func{Writes: []int{0}, NoEffect: true, STR: StrMapped, Result: ResultPointer}, "strcpy strncpy strcat memcpy memset"},
		{Func{Writes: []int{0}, NoEffect: true, STR: StrMapped, Result: ResultPointer, Like: "strcat"}, "strncat"},
		{Func{Writes: []int{0}, NoEffect: true, Result: ResultPointer, Like: "strcpy"}, "stpcpy"},
		{Func{Writes: []int{0}, NoEffect: true, Result: ResultPointer}, "memmove"},
		{Func{Writes: []int{0}, NoEffect: true, STR: StrUnsupported, Result: ResultLength}, "sprintf vsprintf"},
		{Func{Writes: []int{0}, NoEffect: true, STR: StrUnsupported, Result: ResultPointer}, "gets fgets"},
		{Func{Writes: []int{0}, NoEffect: true, STR: StrUnsupported, Result: ResultPointer, Sizes: []int{1}}, "realloc"},
		{Func{Writes: []int{0}, STR: StrUnsupported, Result: ResultLength}, "fread"},
		{Func{Writes: []int{1, 2, 3, 4, 5, 6, 7}, STR: StrUnsupported}, "scanf"},
		{Func{NoEffect: true, STR: StrUnsupported}, "free"},
		// Readers, allocators and calls without a buffer effect.
		{Func{NoEffect: true, STR: StrMapped, Result: ResultLength}, "strlen"},
		{Func{NoEffect: true, Result: ResultLength}, "fwrite"},
		{Func{NoEffect: true, Result: ResultPointer}, "strchr strrchr strstr strdup fopen getenv"},
		{Func{NoEffect: true, Result: ResultPointer, Sizes: []int{0}}, "malloc g_malloc alloca"},
		{Func{NoEffect: true, Result: ResultPointer, Sizes: []int{0, 1}}, "calloc"},
		{Func{NoEffect: true}, "strcmp strncmp memcmp atoi atol printf fprintf puts putchar getchar fclose rand srand exit abort"},
		// The bounded functions the dialects emit (fgets and memcpy above).
		{Func{Writes: []int{0}, NoEffect: true, STR: StrSafe, Result: ResultLength}, "g_strlcpy g_strlcat g_snprintf g_vsnprintf strlcpy strlcat snprintf vsnprintf sprintf_s vsprintf_s"},
		{Func{Writes: []int{0}, NoEffect: true, STR: StrSafe, Result: ResultErrno}, "strcpy_s strcat_s strncpy_s memcpy_s"},
		{Func{Writes: []int{0}, NoEffect: true, STR: StrSafe, Result: ResultPointer}, "gets_s"},
		{Func{NoEffect: true, STR: StrSafe, Result: ResultLength}, "malloc_usable_size"},
	} {
		for _, name := range strings.Fields(row.names) {
			m[name] = row.f
			if row.f.Sizes != nil {
				allocs = append(allocs, name)
			}
		}
	}
	return m, allocs
}()

// AllocSizes maps each catalog function that returns a fresh allocation
// to the argument positions that size it; the caller owns the result.
func AllocSizes() map[string][]int {
	out := make(map[string][]int, len(_allocators))
	for _, name := range _allocators {
		out[name] = slices.Clone(_catalog[name].Sizes)
	}
	return out
}

// LibraryNames lists the functions the catalog models, sorted.
func LibraryNames() []string {
	names := make([]string, 0, len(_catalog))
	for name := range _catalog {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Library returns the catalog's model of the named C library function;
// ok is false for a function the catalog does not know.
func Library(name string) (f Func, ok bool) {
	f, ok = _catalog[name]
	return f, ok
}
