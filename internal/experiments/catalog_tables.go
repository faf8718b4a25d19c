package experiments

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/slr"
	"repro/internal/str"
)

// FormatTableI renders Table I: unsafe functions and their safer
// alternatives, plus the operational choice SLR makes.
func FormatTableI() string {
	var sb strings.Builder
	sb.WriteString("Table I: Some Unsafe Functions and Their Safer Alternatives\n\n")
	for _, e := range slr.TableI {
		sb.WriteString(fmt.Sprintf("%s\n    %s\n", e.Unsafe, e.UnsafeProto))
		for _, a := range e.Alternatives {
			sb.WriteString(fmt.Sprintf("    -> %-18s [%s]\n       %s\n", a.Name, a.Library, a.Signature))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("SLR's operational choices (glib-style, minimal per-instance change):\n")
	for _, fn := range backend.Default().UnsafeFunctions() {
		r, _ := backend.Default().Lookup(fn)
		sb.WriteString(fmt.Sprintf("    %-9s -> %s\n", fn, r.Safe))
	}
	return sb.String()
}

// FormatTableII renders Table II: the STR replacement patterns.
func FormatTableII() string {
	var sb strings.Builder
	sb.WriteString("Table II: Transforming Common Expressions (STR replacement patterns)\n\n")
	group := ""
	for _, p := range str.TableII {
		if p.Group != group {
			group = p.Group
			sb.WriteString(group + "\n")
		}
		sb.WriteString(fmt.Sprintf("  %2d. %s\n      %-34s =>  %s\n",
			p.ID, p.Description, p.Before, p.After))
	}
	return sb.String()
}
