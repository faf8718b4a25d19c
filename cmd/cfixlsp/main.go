// Command cfixlsp is a minimal Language Server Protocol front end for
// the fixer: a zero-dependency stdio server that keeps one incremental
// analysis session per open document, publishes the overflow and
// integer oracles' findings as diagnostics on every edit, and offers
// the SLR/STR repairs as quick-fix code actions.
//
// Usage:
//
//	cfixlsp [-backend glib|bsd|c11k] [-checks all|buf|int]
//	cfixlsp -bench 200 [-bench-funcs 24] [-bench-out BENCH_incremental.json]
//
// The bench mode drives the server's own JSON-RPC loop over an
// in-process pipe and reports warm per-edit latency percentiles
// (cold open + p50/p99 of didChange -> publishDiagnostics).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/pkg/cfix"
)

func main() {
	backendName := flag.String("backend", "", "safe-function dialect for code actions: glib (default), bsd, or c11k")
	checks := flag.String("checks", "all", "oracles behind diagnostics: buf, int, or all")
	bench := flag.Int("bench", 0, "run a latency benchmark with this many warm edits instead of serving")
	benchFuncs := flag.Int("bench-funcs", 24, "with -bench: number of functions in the synthetic program")
	benchOut := flag.String("bench-out", "-", "with -bench: report path (- for stdout)")
	flag.Parse()

	if _, err := cfix.CanonicalChecks(*checks); err != nil {
		fmt.Fprintf(os.Stderr, "cfixlsp: -checks: %v\n", err)
		os.Exit(2)
	}
	if _, err := cfix.CanonicalBackend(*backendName); err != nil {
		fmt.Fprintf(os.Stderr, "cfixlsp: -backend: %v\n", err)
		os.Exit(2)
	}
	if *bench > 0 {
		if err := runBench(*benchFuncs, *bench, *backendName, *checks, *benchOut); err != nil {
			fmt.Fprintf(os.Stderr, "cfixlsp: bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Protocol traffic owns stdout; everything human goes to stderr.
	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv := newLSPServer(os.Stdout, *backendName, *checks, logger)
	if err := srv.run(os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "cfixlsp: %v\n", err)
		os.Exit(1)
	}
}
