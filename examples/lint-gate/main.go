// Lint gate: use the static overflow oracle as a CI check.
//
// The interprocedural interval analysis behind `cfix -lint` flags buffer
// overflows without executing or transforming the program. This example
// runs cfix.Analyze over the LibTIFF 3.8.2 tiff2pdf miniature (the
// paper's CVE-2006-2193 case study) and asserts that the CVE site — the
// sprintf of "\%.3o" into a five-byte buffer — is statically flagged as
// a definite CWE-121 stack overflow, the signal a CI gate would turn
// into a failing build (cfix -lint exits 3 on it).
//
//	go run ./examples/lint-gate
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/corpus"
	"repro/pkg/cfix"
)

func main() {
	rep, err := cfix.Analyze(context.Background(), "tiff2pdf.c", corpus.LibtiffCVESource, cfix.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lint-gate: %v\n", err)
		os.Exit(1)
	}
	findings := rep.Findings

	fmt.Printf("static oracle: %d finding(s)\n", len(findings))
	for _, f := range findings {
		fmt.Printf("  %s\n", f)
	}

	var cve *cfix.Finding
	for i := range findings {
		f := &findings[i]
		if f.CWE == 121 && f.Severity == cfix.SevDefinite {
			cve = f
			break
		}
	}
	if cve == nil {
		fmt.Fprintln(os.Stderr, "lint-gate: CVE site not flagged CWE-121 definite")
		os.Exit(1)
	}

	fmt.Printf("\nCI gate: %s (%s) in %s — definite, build would fail (exit 3)\n",
		cfix.CWEName(cve.CWE), "CWE-121", cve.Function)
	fmt.Printf("suggested repair: %s\n", cve.SuggestedFix)
}
