// Command experiments regenerates the paper's evaluation artifacts — every
// table and figure of Section IV — and prints them side by side with the
// paper's reported numbers.
//
//	experiments                  run everything (full 4,505-program corpus)
//	experiments -table 3         one table (1..6)
//	experiments -figure 2        Figure 2
//	experiments -rq 3            the RQ3 overhead measurement
//	experiments -cve             the LibTIFF case study
//	experiments -lint            cross-validate the static overflow oracle
//	                             against the checked interpreter on SAMATE,
//	                             then run the integer-overflow oracle on the
//	                             synthetic CWE-190/680 corpus
//	experiments -stride 10       sample the SAMATE corpus (faster)
//	experiments -iters 500       RQ3 workload iterations
//	experiments -table 3 -cache  additionally time cold vs cache-warm
//	                             core.Fix passes over the corpus
//	experiments -table 3 -backend bsd
//	                             run Table III with a different repair
//	                             dialect (glib, bsd, c11k)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/pkg/cfix"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		table    = flag.Int("table", 0, "print one table (1..6); 0 = all")
		figure   = flag.Int("figure", 0, "print one figure (2)")
		rq       = flag.Int("rq", 0, "run one research question (3)")
		cve      = flag.Bool("cve", false, "run the LibTIFF case study")
		lint     = flag.Bool("lint", false, "cross-validate the static overflow oracle on SAMATE")
		ablation = flag.Bool("ablation", false, "run the alias-precision ablation")
		stride   = flag.Int("stride", 1, "sample every Nth SAMATE program")
		cacheRun = flag.Bool("cache", false, "with table 3: time cold vs cache-warm core.Fix passes")
		iters    = flag.Int("iters", 200, "RQ3 workload iterations")
		filler   = flag.Int("filler", 2, "filler functions per corpus file (Table IV bulk)")
		dialect  = flag.String("backend", "glib", `repair dialect for the SAMATE runs: "glib", "bsd", or "c11k"`)
	)
	flag.Parse()

	be, err := cfix.CanonicalBackend(*dialect)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: -backend: %v\n", err)
		return 2
	}

	specific := *table != 0 || *figure != 0 || *rq != 0 || *cve || *lint || *ablation
	want := func(t int) bool { return !specific || *table == t }

	if want(1) {
		fmt.Println(experiments.FormatTableI())
	}
	if want(2) {
		fmt.Println(experiments.FormatTableII())
	}
	if want(3) {
		rows, err := experiments.RunTableIII(experiments.TableIIIOptions{
			Stride: *stride, CacheWarm: *cacheRun, Backend: be})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatTableIII(rows))
	}
	if want(4) {
		fmt.Println(experiments.FormatTableIV(experiments.RunTableIV(*filler)))
	}
	if want(5) || (!specific || *figure == 2) {
		res, err := experiments.RunTableV()
		if err != nil {
			return fail(err)
		}
		if want(5) {
			fmt.Println(experiments.FormatTableV(res))
			fmt.Println(experiments.FormatFailureTaxonomy(res))
		}
		if !specific || *figure == 2 {
			fmt.Println(experiments.FormatFigure2(res))
		}
	}
	if want(6) {
		rows, err := experiments.RunTableVI()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatTableVI(rows))
	}
	if !specific || *rq == 3 {
		rows, err := experiments.RunRQ3(*iters)
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatRQ3(rows))
	}
	if !specific || *cve {
		r, err := experiments.RunCVE()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatCVE(r))
	}
	if !specific || *lint {
		rows, err := experiments.RunLint(experiments.LintOptions{Stride: *stride})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatLint(rows))
		irows, err := experiments.RunIntLint(experiments.LintOptions{Stride: *stride})
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatIntLint(irows))
	}
	if !specific || *ablation {
		r, err := experiments.RunAliasPrecisionAblation()
		if err != nil {
			return fail(err)
		}
		fmt.Println(experiments.FormatAliasPrecision(r))
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	return 1
}
