package backend_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/stralloc"
	"repro/internal/typecheck"
)

func TestRegistryNamesAndGet(t *testing.T) {
	names := backend.Names()
	want := []string{"glib", "bsd", "c11k"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
		b, err := backend.Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if b.Name() != n {
			t.Fatalf("Get(%q).Name() = %q", n, b.Name())
		}
	}
}

func TestGetEmptyIsDefault(t *testing.T) {
	b, err := backend.Get("")
	if err != nil {
		t.Fatal(err)
	}
	if b != backend.Default() || b.Name() != "glib" {
		t.Fatalf("Get(\"\") = %q, want the glib default", b.Name())
	}
	c, err := backend.Canonical("")
	if err != nil || c != "glib" {
		t.Fatalf("Canonical(\"\") = %q, %v; want glib", c, err)
	}
	// Surrounding whitespace is tolerated, like Options.Checks names.
	if b, err := backend.Get(" bsd "); err != nil || b.Name() != "bsd" {
		t.Fatalf("Get(\" bsd \") = %v, %v", b, err)
	}
}

func TestGetUnknownListsValidSet(t *testing.T) {
	_, err := backend.Get("musl")
	if err == nil {
		t.Fatal("Get(musl) succeeded")
	}
	for _, want := range []string{"musl", "glib", "bsd", "c11k"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if _, err := backend.Canonical("musl"); err == nil {
		t.Fatal("Canonical(musl) succeeded")
	}
}

// TestDialectTables pins the load-bearing rule fields of each dialect:
// the replacement callee and, critically, where the size argument goes
// (glib/bsd append after the source; Annex K inserts before it).
func TestDialectTables(t *testing.T) {
	cases := []struct {
		backend      backend.Backend
		unsafe, safe string
		kind         backend.Kind
		sizeAfterArg int
	}{
		{backend.Glib, "strcpy", "g_strlcpy", backend.KindRename, 1},
		{backend.Glib, "strcat", "g_strlcat", backend.KindRename, 1},
		{backend.Glib, "sprintf", "g_snprintf", backend.KindRename, 0},
		{backend.Glib, "vsprintf", "g_vsnprintf", backend.KindRename, 0},
		{backend.Glib, "memcpy", "memcpy", backend.KindClamp, 0},
		{backend.Glib, "gets", "fgets", backend.KindGets, 0},
		{backend.BSD, "strcpy", "strlcpy", backend.KindRename, 1},
		{backend.BSD, "strcat", "strlcat", backend.KindRename, 1},
		{backend.BSD, "sprintf", "snprintf", backend.KindRename, 0},
		{backend.BSD, "vsprintf", "vsnprintf", backend.KindRename, 0},
		{backend.BSD, "memcpy", "memcpy", backend.KindClamp, 0},
		{backend.BSD, "gets", "fgets", backend.KindGets, 0},
		{backend.C11K, "strcpy", "strcpy_s", backend.KindRename, 0},
		{backend.C11K, "strcat", "strcat_s", backend.KindRename, 0},
		{backend.C11K, "sprintf", "sprintf_s", backend.KindRename, 0},
		{backend.C11K, "vsprintf", "vsprintf_s", backend.KindRename, 0},
		{backend.C11K, "memcpy", "memcpy_s", backend.KindRename, 0},
		{backend.C11K, "gets", "gets_s", backend.KindGets, 0},
	}
	for _, c := range cases {
		r, ok := c.backend.Lookup(c.unsafe)
		if !ok {
			t.Fatalf("%s: no rule for %s", c.backend.Name(), c.unsafe)
		}
		if r.Safe != c.safe || r.Kind != c.kind || r.SizeAfterArg != c.sizeAfterArg {
			t.Fatalf("%s %s: got (%s, kind %d, sizeAfterArg %d), want (%s, kind %d, sizeAfterArg %d)",
				c.backend.Name(), c.unsafe, r.Safe, r.Kind, r.SizeAfterArg, c.safe, c.kind, c.sizeAfterArg)
		}
	}
}

// TestGetsRules pins the bounded-reader differences: fgets keeps the
// newline (strip) and reads from a stream; gets_s discards the newline
// itself and takes no stream argument.
func TestGetsRules(t *testing.T) {
	for _, b := range []backend.Backend{backend.Glib, backend.BSD} {
		r, _ := b.Lookup("gets")
		if !r.StripNewline || len(r.ExtraArgs) != 1 || r.ExtraArgs[0] != "stdin" {
			t.Fatalf("%s gets rule = %+v, want fgets with stdin and newline strip", b.Name(), r)
		}
		if r.NeedsLib {
			t.Fatalf("%s: fgets is hosted libc, must not require the dialect library", b.Name())
		}
	}
	r, _ := backend.C11K.Lookup("gets")
	if r.StripNewline || len(r.ExtraArgs) != 0 {
		t.Fatalf("c11k gets rule = %+v, want gets_s with no extra args and no strip", r)
	}
	if !r.NeedsLib {
		t.Fatal("c11k: gets_s needs the Annex K prototypes")
	}
}

func TestUnsafeFunctionsStableAcrossDialects(t *testing.T) {
	want := []string{"strcpy", "strcat", "sprintf", "vsprintf", "memcpy", "gets"}
	for _, name := range backend.Names() {
		b, _ := backend.Get(name)
		got := b.UnsafeFunctions()
		if len(got) != len(want) {
			t.Fatalf("%s: UnsafeFunctions() = %v", name, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: UnsafeFunctions()[%d] = %q, want %q", name, i, got[i], want[i])
			}
			if _, ok := b.Lookup(want[i]); !ok {
				t.Fatalf("%s: listed %q has no rule", name, want[i])
			}
		}
	}
}

// TestPrototypesParseAndCheck: every backend's support declarations
// must be accepted by the repo's own C front end, because EmitSupport
// prepends them to transformed sources that are then re-parsed (the
// idempotence suite) and executed (the interpreter equivalence suite).
func TestPrototypesParseAndCheck(t *testing.T) {
	for _, name := range backend.Names() {
		b, _ := backend.Get(name)
		src := b.Prototypes() + "\nint main(void) { return 0; }\n"
		unit, err := cparse.Parse(name+"_protos.c", src)
		if err != nil {
			t.Fatalf("%s prototypes do not parse: %v", name, err)
		}
		typecheck.Check(unit)
		if b.LinkNote() == "" {
			t.Fatalf("%s: empty LinkNote", name)
		}
		if b.Description() == "" {
			t.Fatalf("%s: empty Description", name)
		}
	}
}

// TestGlibSupportMatchesSeed pins the glib dialect's emitted support
// text to the seed pipeline's exact bytes (stralloc runtime, newline,
// glib prototypes) — the byte-identity acceptance criterion reaches
// through EmitSupport too.
func TestGlibSupportMatchesSeed(t *testing.T) {
	units := backend.SupportUnits(true, true, backend.Glib)
	if len(units) != 2 || units[0].Name != "stralloc" || units[1].Name != "glib-prototypes" {
		t.Fatalf("SupportUnits = %+v", units)
	}
	var sb strings.Builder
	for _, u := range units {
		sb.WriteString(u.Source)
		sb.WriteString("\n")
	}
	want := stralloc.FullSource() + "\n" + units[1].Source + "\n"
	if sb.String() != want {
		t.Fatal("glib support assembly diverges from the seed emission order")
	}
	if got := backend.SupportUnits(false, false, backend.Glib); len(got) != 0 {
		t.Fatalf("SupportUnits(false, false) = %+v, want none", got)
	}
	if got := backend.SupportUnits(false, true, nil); len(got) != 1 || got[0].Name != "glib-prototypes" {
		t.Fatalf("SupportUnits with nil backend = %+v, want the default's prototypes", got)
	}
}

// TestCatalogCoversDialects: every function a dialect replaces, emits
// or declares in its prototypes has a catalog entry, so no client of the
// catalog meets a repair's own call as an unknown function. Declared
// functions are safe ones, and each function a dialect replaces or
// emits writes through its first argument only.
func TestCatalogCoversDialects(t *testing.T) {
	funcs := func(src string) map[string]bool {
		unit, err := cparse.Parse("protos.c", src)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for _, sym := range unit.Symbols {
			out[sym.Name] = sym.Kind == cast.SymFunc
		}
		return out
	}
	builtin := funcs("")
	for name, isFunc := range funcs(backend.Glib.Prototypes() + backend.BSD.Prototypes() + backend.C11K.Prototypes()) {
		if !isFunc || builtin[name] {
			continue
		}
		if f, ok := backend.Library(name); !ok || f.STR != backend.StrSafe {
			t.Errorf("prototype %s: catalog entry %+v, %v; want a safe function", name, f, ok)
		}
	}
	for _, name := range backend.Names() {
		b, _ := backend.Get(name)
		for _, unsafe := range b.UnsafeFunctions() {
			r, _ := b.Lookup(unsafe)
			for _, fn := range []string{unsafe, r.Safe} {
				if f, ok := backend.Library(fn); !ok || !slices.Equal(f.Writes, []int{0}) {
					t.Errorf("%s: %s: catalog entry %+v, %v; want a writer of argument 0 only", name, fn, f, ok)
				}
			}
		}
	}
}
