// Command cfix applies the paper's two buffer-overflow-fixing
// transformations to preprocessed C files.
//
// Usage:
//
//	cfix [flags] file.c [more.c ...]
//
//	-o out.c        write the transformed source here (single input only;
//	                default: stdout)
//	-outdir dir     write each transformed file to dir (batch mode)
//	-slr=false      disable SAFE LIBRARY REPLACEMENT
//	-str=false      disable SAFE TYPE REPLACEMENT
//	-at offset      apply SLR only to the call expression at this byte offset
//	-support        prepend the stralloc library and the selected
//	                backend's safe-function prototypes
//	-verify entry   additionally run <entry> under the checked interpreter
//	                before and after, reporting violations
//	-summary        print the per-site/per-variable change log to stderr
//	-diff           print a unified diff of the changes (the didactic view)
//	-lint           do not transform; run the static overflow oracle and
//	                print CWE-classified findings
//	-checks list    which lint oracles run: "buf" (buffer overflows,
//	                the default), "int" (integer wraparound/underflow and
//	                overflow-to-allocation, CWE-190/191/680 with suggested
//	                precondition guards), "all", or a comma list
//	-backend name   safe-function dialect SLR rewrites to: "glib" (the
//	                default, g_strlcpy/g_strlcat/g_snprintf), "bsd"
//	                (strlcpy/strlcat/snprintf), or "c11k" (C11 Annex K
//	                strcpy_s family, destination size before the source)
//	-json           with -lint, print findings as JSON lines
//	-j n            parallel workers for batch mode (0 = one per CPU;
//	                negative values are a usage error)
//	-cache-dir dir  reuse full-fidelity results across runs from a
//	                content-addressed cache under dir (atomic writes,
//	                checksum-verified reads); unchanged files cost a
//	                lookup instead of a parse and a fixpoint solve
//	-cache-size n   in-memory tier bound for -cache-dir, in MiB
//	                (default 256)
//	-timeout d      per-file processing deadline (e.g. 30s; 0 = none)
//	-total-timeout d  overall deadline for the whole invocation (0 = none)
//	-budget n       per-file solver iteration/context budget; exhausted
//	                budgets degrade to conservative results, never silence
//	-keep-going     process every file even when one fails; report each
//	                error and exit nonzero at the end
//	-trace out.json record one span per pipeline stage and write a
//	                Chrome trace-event file (open in chrome://tracing or
//	                ui.perfetto.dev; one lane per -j worker)
//	-stage-stats    print the aggregated per-stage timing table to
//	                stderr (count, self, total, min, max, degraded)
//
// A directory argument expands to every .c file directly inside it — the
// paper's maintenance scenario of batch-hardening a legacy tree.
//
// Exit codes:
//
//	0  success; with -lint, no definite overflow was found
//	1  a file could not be read, parsed, or transformed (with -keep-going,
//	   at least one file failed)
//	2  usage error
//	3  -lint found at least one definite overflow (CI gate signal; with
//	   -keep-going this dominates per-file errors)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/textdiff"
	"repro/pkg/cfix"
)

func main() { os.Exit(run()) }

// options collects the parsed flags.
type options struct {
	out          string
	outdir       string
	doSLR        bool
	doSTR        bool
	at           int
	support      bool
	verify       string
	summary      bool
	diff         bool
	lint         bool
	checks       string
	backend      string
	json         bool
	jobs         int
	cacheDir     string
	cacheSize    int64
	timeout      time.Duration
	totalTimeout time.Duration
	budget       int
	keepGoing    bool
	traceOut     string
	stageStats   bool
	project      string

	// cache is the result cache built from cacheDir/cacheSize; nil when
	// caching is off.
	cache *cfix.ResultCache
	// tracer records stage spans when -trace or -stage-stats is set.
	tracer *cfix.Tracer
}

// fixOptions translates the CLI flags into library options.
func (o options) fixOptions() cfix.Options {
	return cfix.Options{
		DisableSLR:   !o.doSLR,
		DisableSTR:   !o.doSTR,
		SelectOffset: o.at,
		SelectAll:    o.at < 0,
		EmitSupport:  o.support,
		// The summary ranks and justifies candidate sites with the static
		// oracle's verdicts when they are available.
		Lint:      o.summary,
		Checks:    o.checks,
		Backend:   o.backend,
		Timeout:   o.timeout,
		Budget:    o.budget,
		KeepGoing: o.keepGoing,
		Cache:     o.cache,
		Tracer:    o.tracer,
	}
}

func run() int {
	var opts options
	flag.StringVar(&opts.out, "o", "", "output file (single input; default stdout)")
	flag.StringVar(&opts.outdir, "outdir", "", "output directory (batch mode)")
	flag.BoolVar(&opts.doSLR, "slr", true, "apply SAFE LIBRARY REPLACEMENT")
	flag.BoolVar(&opts.doSTR, "str", true, "apply SAFE TYPE REPLACEMENT")
	flag.IntVar(&opts.at, "at", -1, "apply SLR only at this byte offset")
	flag.BoolVar(&opts.support, "support", false, "prepend stralloc/glib support code")
	flag.StringVar(&opts.verify, "verify", "", "entry function to execute pre/post")
	flag.BoolVar(&opts.summary, "summary", true, "print change summary to stderr")
	flag.BoolVar(&opts.diff, "diff", false, "print a unified diff instead of the full source")
	flag.BoolVar(&opts.lint, "lint", false, "run the static overflow oracle only; exit 3 on a definite overflow")
	flag.StringVar(&opts.checks, "checks", "buf", `lint oracles to run: "buf", "int", "all", or a comma list`)
	flag.StringVar(&opts.backend, "backend", "glib", `safe-function dialect SLR rewrites to: "glib", "bsd", or "c11k"`)
	flag.BoolVar(&opts.json, "json", false, "with -lint, print findings as JSON lines")
	flag.IntVar(&opts.jobs, "j", 0, "parallel workers for batch mode (0 = one worker per CPU; must be >= 0)")
	flag.StringVar(&opts.cacheDir, "cache-dir", "", "reuse results across runs from a content-addressed cache under this directory")
	flag.Int64Var(&opts.cacheSize, "cache-size", 256, "in-memory tier bound for -cache-dir, in MiB")
	flag.DurationVar(&opts.timeout, "timeout", 0, "per-file processing deadline (0 = none)")
	flag.DurationVar(&opts.totalTimeout, "total-timeout", 0, "overall deadline for the whole invocation (0 = none)")
	flag.IntVar(&opts.budget, "budget", 0, "per-file solver iteration/context budget (0 = unlimited); exhaustion degrades, never silences")
	flag.BoolVar(&opts.keepGoing, "keep-going", false, "process every file even when one fails; exit nonzero at the end")
	flag.StringVar(&opts.project, "p", "", "project mode: process every C unit of this compile_commands.json (preprocessing included)")
	flag.StringVar(&opts.traceOut, "trace", "", "write a Chrome trace-event JSON file of the pipeline stages here")
	flag.BoolVar(&opts.stageStats, "stage-stats", false, "print the aggregated per-stage timing table to stderr")
	flag.Parse()

	if opts.jobs < 0 {
		fmt.Fprintln(os.Stderr, "cfix: -j must be >= 0 (0 = one worker per CPU)")
		return 2
	}
	if _, err := cfix.CanonicalChecks(opts.checks); err != nil {
		fmt.Fprintf(os.Stderr, "cfix: -checks: %v\n", err)
		return 2
	}
	if _, err := cfix.CanonicalBackend(opts.backend); err != nil {
		fmt.Fprintf(os.Stderr, "cfix: -backend: %v\n", err)
		return 2
	}
	if opts.cacheDir != "" {
		size := opts.cacheSize << 20
		if size <= 0 {
			size = 256 << 20
		}
		var err error
		opts.cache, err = cfix.NewResultCache(size, opts.cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
	}

	ctx := context.Background()
	if opts.totalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.totalTimeout)
		defer cancel()
	}

	if opts.project != "" {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "cfix: -p takes no file arguments (the database lists the units)")
			return 2
		}
		if opts.at >= 0 {
			fmt.Fprintln(os.Stderr, "cfix: -at is not supported in project mode")
			return 2
		}
		code := projectRun(ctx, opts)
		if obsCode := emitObservability(opts); obsCode != 0 && code == 0 {
			code = obsCode
		}
		return code
	}

	paths, err := expandArgs(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
		return 1
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: cfix [flags] file.c [more.c ...]")
		fmt.Fprintln(os.Stderr, "exit codes: 0 success/clean, 1 error, 2 usage, 3 definite overflow found by -lint")
		flag.PrintDefaults()
		return 2
	}
	if opts.json && !opts.lint {
		fmt.Fprintln(os.Stderr, "cfix: -json requires -lint")
		return 2
	}
	if opts.traceOut != "" || opts.stageStats {
		opts.tracer = cfix.NewTracer()
	}

	var code int
	switch {
	case opts.lint:
		code = lintFiles(ctx, paths, opts)
	case len(paths) > 1 && opts.out != "":
		fmt.Fprintln(os.Stderr, "cfix: -o needs a single input; use -outdir for batches")
		return 2
	case len(paths) > 1 && opts.at >= 0:
		fmt.Fprintln(os.Stderr, "cfix: -at needs a single input")
		return 2
	default:
		code = fixFiles(ctx, paths, opts)
	}
	if obsCode := emitObservability(opts); obsCode != 0 && code == 0 {
		code = obsCode
	}
	return code
}

// emitObservability writes the -trace file and prints the -stage-stats
// table after the run. The stats table reports self time per stage
// (exclusive of nested stages), so its total matches the traced wall
// clock instead of double-counting nesting.
func emitObservability(opts options) int {
	if opts.tracer == nil {
		return 0
	}
	if opts.stageStats {
		fmt.Fprint(os.Stderr, cfix.FormatStageStats(opts.tracer.StageStats(), opts.tracer.WallClock()))
	}
	if opts.traceOut != "" {
		f, err := os.Create(opts.traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
		werr := opts.tracer.WriteChromeTrace(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "cfix: writing trace: %v\n", werr)
			return 1
		}
	}
	return 0
}

// fixFiles reads every input, fixes them through the parallel batch
// pipeline (cfix.FixAll), and emits the results in input order. Without
// -keep-going the first failure stops the run; with it, every file is
// processed and reported and the run exits 1 at the end if any failed.
func fixFiles(ctx context.Context, paths []string, opts options) int {
	inputs := make([]cfix.FileInput, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
		inputs[i] = cfix.FileInput{Filename: path, Source: string(data)}
	}
	outs := cfix.FixAllContext(ctx, inputs, opts.fixOptions(), opts.jobs)
	failed := false
	for i, out := range outs {
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %s: %v\n", out.Filename, out.Err)
			if !opts.keepGoing {
				return 1
			}
			failed = true
			continue
		}
		if code := emitOne(paths[i], inputs[i].Source, out.Report, opts, len(paths) > 1); code != 0 {
			if !opts.keepGoing {
				return code
			}
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// lintDegradations is the JSON shape of the per-file degradation trailer
// in -lint -json output: emitted after a file's findings whenever the
// analysis had to degrade (budget exhaustion, skipped stage), so
// machine consumers can tell a clean full-fidelity verdict from a
// qualified one.
type lintDegradations struct {
	File         string   `json:"file"`
	Degradations []string `json:"degradations"`
}

// lintPrinter prints lint reports in the formats of -lint and -lint
// -json, for single files and project units alike, and remembers
// whether any finding was definite.
type lintPrinter struct {
	json     bool
	enc      *json.Encoder
	definite bool
}

func newLintPrinter(opts options) *lintPrinter {
	return &lintPrinter{json: opts.json, enc: json.NewEncoder(os.Stdout)}
}

// print writes one unit's findings, then its degradations (a JSON
// trailer line, or a note on stderr), then, in text mode, a note when
// the unit has no finding.
func (p *lintPrinter) print(file string, rep *cfix.Report) error {
	for _, f := range rep.Findings {
		if f.Severity == cfix.SevDefinite {
			p.definite = true
		}
		if !p.json {
			fmt.Println(f)
		} else if err := p.enc.Encode(cfix.NewFindingJSON(f)); err != nil {
			return err
		}
	}
	if len(rep.Degraded) > 0 {
		if !p.json {
			fmt.Fprintf(os.Stderr, "%s: analysis degraded: %s\n", file, strings.Join(rep.Degraded, "; "))
		} else if err := p.enc.Encode(lintDegradations{File: file, Degradations: rep.Degraded}); err != nil {
			return err
		}
	}
	if !p.json && len(rep.Findings) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no overflows found\n", file)
	}
	return nil
}

// exitCode is the lint gate: 3 when any finding was definite, else 1
// when a unit failed, else 0. The definite-overflow signal dominates
// per-file errors so CI reads the security signal first.
func (p *lintPrinter) exitCode(failed bool) int {
	switch {
	case p.definite:
		return 3
	case failed:
		return 1
	}
	return 0
}

// lintFiles runs the static overflow oracle over every input — through
// the parallel batch pipeline — and prints the findings in input order.
// It returns 3 when any finding is definite, 0 when all files are clean
// or merely possible, 1 on processing errors. With -keep-going a
// per-file error no longer stops the run.
func lintFiles(ctx context.Context, paths []string, opts options) int {
	inputs := make([]cfix.FileInput, len(paths))
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
		inputs[i] = cfix.FileInput{Filename: path, Source: string(data)}
	}
	pr := newLintPrinter(opts)
	failed := false
	for _, res := range cfix.AnalyzeAllContext(ctx, inputs, opts.fixOptions(), opts.jobs) {
		if res.Err != nil {
			// Parse errors already carry file:line:col.
			fmt.Fprintf(os.Stderr, "%v\n", res.Err)
			if !opts.keepGoing {
				return 1
			}
			failed = true
			continue
		}
		if err := pr.print(res.Filename, res.Report); err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
	}
	return pr.exitCode(failed)
}

// expandArgs resolves directory arguments to the .c files inside them.
func expandArgs(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".c") {
				files = append(files, filepath.Join(a, e.Name()))
			}
		}
		sort.Strings(files)
		out = append(out, files...)
	}
	return out, nil
}

// emitOne reports and writes the fix outcome for a single file: pre/post
// verification runs, the change summary, the diff view, and the output
// file. Output ordering matches the historical sequential pipeline.
func emitOne(path, source string, rep *cfix.Report, opts options, batch bool) int {
	if opts.verify != "" {
		res, err := cfix.Run(path, source, opts.verify, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfix: pre-run: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s before: %d violation(s)\n", path, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
	}

	if opts.summary {
		if batch {
			fmt.Fprintf(os.Stderr, "== %s ==\n", path)
		}
		fmt.Fprint(os.Stderr, rep.Summary())
	}

	if opts.verify != "" {
		res, err := cfix.Run(path, rep.Source, opts.verify, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfix: post-run: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s after:  %d violation(s)\n", path, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
	}

	if opts.diff {
		// The didactic view (Section I): show exactly what changed.
		d := textdiff.Unified(path, path+" (fixed)", source, rep.Source)
		if d == "" {
			fmt.Fprintf(os.Stderr, "%s: no changes\n", path)
		}
		os.Stdout.WriteString(d)
		if opts.out == "" && opts.outdir == "" {
			return 0
		}
	}
	switch {
	case opts.outdir != "":
		if err := os.MkdirAll(opts.outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
		dst := filepath.Join(opts.outdir, filepath.Base(path))
		if err := writeFileAtomic(dst, []byte(rep.Source), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
	case opts.out != "":
		if err := writeFileAtomic(opts.out, []byte(rep.Source), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
			return 1
		}
	default:
		os.Stdout.WriteString(rep.Source)
	}
	return 0
}

// writeFileAtomic writes data to path through a temporary file in the
// same directory followed by a rename, so a crash, full disk, or
// concurrent reader never observes a truncated output — the transformed
// source either fully replaces the destination or leaves it untouched.
func writeFileAtomic(path string, data []byte, mode os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		return err
	}
	if err := tmp.Chmod(mode); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup no longer owns the file
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// projectRun is `cfix -p compile_commands.json`: the whole-project
// pipeline with the built-in preprocessor and cross-file seeding. Fix
// results print a unified diff per changed file to stdout (or write to
// -outdir); -lint prints each unit through the single-file lint printer.
func projectRun(ctx context.Context, opts options) int {
	fopts := opts.fixOptions()
	var rep *cfix.ProjectReport
	var err error
	if opts.lint {
		rep, err = cfix.AnalyzeProject(ctx, opts.project, fopts)
	} else {
		rep, err = cfix.FixProject(ctx, opts.project, fopts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
		return 1
	}
	if opts.summary && len(rep.Edges) > 0 {
		fmt.Fprintf(os.Stderr, "project: %d cross-file call(s) linked\n", len(rep.Edges))
		for _, e := range rep.Edges {
			fmt.Fprintf(os.Stderr, "  %s:%s -> %s:%s\n", e.CallerFile, e.Caller, e.CalleeFile, e.Callee)
		}
	}
	pr := newLintPrinter(opts)
	failed := false
	for _, out := range rep.Files {
		if out.Err != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", out.File, out.Err)
			failed = true
			continue
		}
		if opts.lint {
			if err := pr.print(out.File, out.Fix); err != nil {
				fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
				return 1
			}
			continue
		}
		if opts.summary {
			fmt.Fprintf(os.Stderr, "== %s ==\n", out.File)
			fmt.Fprint(os.Stderr, out.Fix.Summary())
		}
		orig := readOriginal(out.File)
		if opts.outdir != "" {
			if err := os.MkdirAll(opts.outdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
				return 1
			}
			dst := filepath.Join(opts.outdir, filepath.Base(out.File))
			if err := writeFileAtomic(dst, []byte(out.Fix.Source), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "cfix: %v\n", err)
				return 1
			}
		} else if orig != "" || out.Fix.Changed() {
			d := textdiff.Unified(out.File, out.File+" (fixed)", orig, out.Fix.Source)
			if d == "" {
				fmt.Fprintf(os.Stderr, "%s: no changes\n", out.File)
			}
			os.Stdout.WriteString(d)
		}
	}
	return pr.exitCode(failed)
}

// readOriginal re-reads a project file for diffing; an empty string on
// error just degrades the diff (the fix result itself already surfaced
// any real I/O problem during loading).
func readOriginal(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}
