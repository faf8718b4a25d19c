// Analysis report: inspect the program analyses behind the
// transformations.
//
// The paper's infrastructure contribution (Section III-A) is the analysis
// stack — control flow, reaching definitions, points-to, alias sets — at
// source level. This example runs the stack over a small program and
// prints what each analysis concluded, ending with Algorithm 1's verdict
// for every unsafe call site (the size it computed, or the precondition
// failure it reported).
//
//	go run ./examples/analysis-report
package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/backend"
	"repro/internal/cast"
	"repro/internal/slr"
)

const program = `
struct header { char *data; char *spare; };

void handle(char *input, int mode) {
    char stackbuf[64];
    char *heap;
    char *cursor;
    struct header h;

    heap = malloc(128);
    cursor = stackbuf;
    h.data = heap;

    strcpy(stackbuf, input);
    strcpy(cursor, input);
    strcpy(heap, input);
    strcpy(h.data, input);
    strcpy(input, "echo");
}
`

func main() { os.Exit(run()) }

func run() int {
	snap, err := analysis.Parse("report.c", program)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	unit := snap.Unit()

	fmt.Println("=== points-to sets ===")
	ptg, aliases := snap.PointsTo(), snap.Aliases()
	for _, sym := range unit.Symbols {
		if sym.Kind != cast.SymVar || sym.IsGlobal {
			continue
		}
		pts := ptg.PointsTo(sym)
		if len(pts) == 0 {
			continue
		}
		fmt.Printf("  %-10s ->", sym.Name)
		for _, n := range pts {
			fmt.Printf(" %s", n)
		}
		if aliases.IsAliased(sym) {
			fmt.Printf("   [aliased]")
		}
		fmt.Println()
	}

	fmt.Println("\n=== Algorithm 1 verdicts per unsafe call ===")
	analyzer := snap.BufLenAnalyzer()
	fn := unit.FuncNamed("handle")
	cast.Inspect(fn.Body, func(n cast.Node) bool {
		call, ok := n.(*cast.CallExpr)
		if !ok {
			return true
		}
		if _, unsafe := backend.Default().Lookup(call.Callee()); !unsafe {
			return true
		}
		pos := unit.File.Position(call.Extent().Pos)
		dest := unit.File.Slice(call.Args[0].Extent())
		size, fail := analyzer.BufferLength(fn, call.Args[0])
		if fail != nil {
			fmt.Printf("  %s  %s(%s, ...)  REFUSED: %v\n", pos, call.Callee(), dest, fail)
		} else {
			fmt.Printf("  %s  %s(%s, ...)  size = %s\n", pos, call.Callee(), dest, size.CText())
		}
		return true
	})

	fmt.Println("\n=== what SLR would do ===")
	res, err := slr.NewTransformer(snap, nil).ApplyAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("  %d/%d call sites transformable\n", res.AppliedCount(), res.Candidates())
	return 0
}
