// Package project drives the fixer across a whole C project: it loads a
// compile_commands.json database (or an in-memory file set), preprocesses
// every translation unit with internal/cpp, links the per-TU call graphs
// by symbol name, and runs the core pipeline per file with cross-TU call
// seeds — so an overflow provable only from a caller in another file is
// found and fixed, and every edit still lands in the text the user wrote.
//
// The link is a two-round protocol (DESIGN.md Section 16):
//
//  1. Scan: each TU is preprocessed, parsed and fixed stand-alone (a
//     lint run is a fix run with both repairs off, core.LintOptions);
//     from the same parse, calls to functions the TU does not define
//     are evaluated under the caller's interval state and exported as
//     overflow.CallSeed values.
//  2. Fix: seeds are routed to the TU that defines their callee (by
//     symbol name — C has one flat namespace for external linkage).
//     Only the TUs that receive seeds rerun, with Options.ExternSeeds,
//     exploring the transported contexts exactly like local call edges;
//     every other TU keeps its scan result, which seeds could not change.
//
// Everything stays deterministic: TUs process in database order, seeds
// sort before fingerprinting, and a file's cache key absorbs both its
// headers (through the preprocessed text it is keyed on) and its
// incoming seeds (SeedFingerprint).
package project

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpp"
	"repro/internal/fault"
	"repro/internal/overflow"
)

// Command is one entry of a Clang-style compile_commands.json database.
// Exactly one of Command or Arguments is normally set.
type Command struct {
	Directory string   `json:"directory"`
	File      string   `json:"file"`
	Command   string   `json:"command,omitempty"`
	Arguments []string `json:"arguments,omitempty"`
	Output    string   `json:"output,omitempty"`
}

// TU is one translation unit resolved from the database: the main file
// plus the preprocessor configuration its compile command implies.
type TU struct {
	// File is the unit's path as the project addresses it (absolute for
	// database-loaded projects, verbatim for in-memory ones).
	File string
	// Source is the unit's original text.
	Source string
	// CppOpts carries the -I/-D flags translated for internal/cpp. The
	// Open hook is set for in-memory projects.
	CppOpts cpp.Options
}

// Project is a set of translation units processed together.
type Project struct {
	TUs []*TU
}

// LoadCompileCommands parses a compile_commands.json file into its raw
// entries, without reading any sources.
func LoadCompileCommands(path string) ([]Command, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("project: %w", err)
	}
	var cmds []Command
	if err := json.Unmarshal(b, &cmds); err != nil {
		return nil, fmt.Errorf("project: parse %s: %w", path, err)
	}
	return cmds, nil
}

// Load builds a Project from a compile_commands.json file: every .c
// entry is read from disk and its -I/-D flags are translated into
// cpp.Options (relative include dirs resolve against the entry's
// Directory). Non-C entries (assembly, C++) are skipped.
func Load(path string) (*Project, error) {
	cmds, err := LoadCompileCommands(path)
	if err != nil {
		return nil, err
	}
	p := &Project{}
	seen := make(map[string]bool)
	for _, cmd := range cmds {
		file := cmd.File
		if !filepath.IsAbs(file) {
			file = filepath.Join(cmd.Directory, file)
		}
		file = filepath.Clean(file)
		if seen[file] || !strings.HasSuffix(file, ".c") {
			continue
		}
		seen[file] = true
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("project: read %s: %w", cmd.File, err)
		}
		args := cmd.Arguments
		if len(args) == 0 {
			args = splitCommand(cmd.Command)
		}
		opts := argsToCppOptions(args, cmd.Directory)
		p.TUs = append(p.TUs, &TU{File: file, Source: string(src), CppOpts: opts})
	}
	if len(p.TUs) == 0 {
		return nil, fmt.Errorf("project: no C translation units in %s", path)
	}
	return p, nil
}

// InMemory builds a Project from in-memory sources: files maps unit
// names to C sources, headers maps include names to header text, and
// includeDirs seeds the include search path. This is the daemon's batch
// mode and the test harness — nothing touches the filesystem.
func InMemory(files map[string]string, headers map[string]string, includeDirs []string) *Project {
	open := func(path string) (string, bool) {
		if s, ok := headers[path]; ok {
			return s, true
		}
		// Headers may resolve through a join with the includer's
		// directory ("." for top-level names).
		if s, ok := headers[filepath.Clean(path)]; ok {
			return s, true
		}
		if s, ok := files[path]; ok {
			return s, true
		}
		return "", false
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	p := &Project{}
	for _, name := range names {
		p.TUs = append(p.TUs, &TU{
			File:    name,
			Source:  files[name],
			CppOpts: cpp.Options{IncludeDirs: includeDirs, Open: open},
		})
	}
	return p
}

// argsToCppOptions translates the flags internal/cpp understands:
// -I<dir> / -I <dir> (include path) and -D<name>[=<val>] / -D <name>
// (predefined macros). Everything else — optimization, warnings, the
// compiler name, the source file — is ignored.
func argsToCppOptions(args []string, dir string) cpp.Options {
	opts := cpp.Options{Defines: map[string]string{}}
	resolve := func(d string) string {
		if d != "" && !filepath.IsAbs(d) && dir != "" {
			return filepath.Join(dir, d)
		}
		return d
	}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-I" && i+1 < len(args):
			i++
			opts.IncludeDirs = append(opts.IncludeDirs, resolve(args[i]))
		case strings.HasPrefix(a, "-I"):
			opts.IncludeDirs = append(opts.IncludeDirs, resolve(a[2:]))
		case a == "-D" && i+1 < len(args):
			i++
			addDefine(opts.Defines, args[i])
		case strings.HasPrefix(a, "-D"):
			addDefine(opts.Defines, a[2:])
		}
	}
	return opts
}

func addDefine(m map[string]string, d string) {
	if d == "" {
		return
	}
	if eq := strings.IndexByte(d, '='); eq >= 0 {
		m[d[:eq]] = d[eq+1:]
		return
	}
	m[d] = "1"
}

// splitCommand tokenizes a shell command line the way build systems
// quote them: whitespace-separated, honoring single quotes, double
// quotes, and backslash escapes. It does not expand variables.
func splitCommand(s string) []string {
	var out []string
	var cur strings.Builder
	inField := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		case c == '\'':
			inField = true
			for i++; i < len(s) && s[i] != '\''; i++ {
				cur.WriteByte(s[i])
			}
		case c == '"':
			inField = true
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' && i+1 < len(s) && (s[i+1] == '"' || s[i+1] == '\\') {
					i++
				}
				cur.WriteByte(s[i])
			}
		case c == '\\' && i+1 < len(s):
			inField = true
			i++
			cur.WriteByte(s[i])
		default:
			inField = true
			cur.WriteByte(c)
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// CrossEdge is one linked cross-TU call: a call in CallerFile to a
// function defined in CalleeFile.
type CrossEdge struct {
	CallerFile string `json:"caller_file"`
	Caller     string `json:"caller"`
	CalleeFile string `json:"callee_file"`
	Callee     string `json:"callee"`
}

// Link is the project-level symbol linkage computed by the scan round.
type Link struct {
	// DefinedBy maps every externally visible function definition to the
	// file that defines it. On duplicate definitions the first TU (in
	// project order) wins, matching the linker's first-object rule
	// closely enough for analysis.
	DefinedBy map[string]string
	// Edges lists the resolved cross-TU calls in scan order.
	Edges []CrossEdge
	// SeedsFor routes the transported call seeds: file -> seeds whose
	// callee that file defines.
	SeedsFor map[string][]overflow.CallSeed
}

// FileOutcome is one TU's result in a project run.
type FileOutcome struct {
	File string `json:"file"`
	// Fix is the unit's report; nil when the unit failed.
	Fix *core.Report `json:"fix,omitempty"`
	// Includes lists the headers the preprocessor inlined, in first-use
	// order.
	Includes []string `json:"includes,omitempty"`
	// Err carries a per-file failure (the run continues; project mode is
	// keep-going across files by construction).
	Err string `json:"err,omitempty"`
}

// Report is the outcome of a project run.
type Report struct {
	Files []FileOutcome `json:"files"`
	// Edges lists the cross-TU calls the scan round linked.
	Edges []CrossEdge `json:"edges,omitempty"`
}

// Fix runs the two-round project pipeline and returns per-file fix
// reports with edits applied to the original (pre-expansion) sources.
// Per-file failures are recorded in the outcome, not fatal; err is
// non-nil only for whole-project failures (context cancellation).
func (p *Project) Fix(ctx context.Context, opts core.Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Project mode is always batch: the case-by-case offset selector
	// addresses one file's original coordinates and has no meaning
	// across a database run.
	opts.SelectOffset = -1
	link, files, err := p.scan(ctx, opts)
	rep := &Report{Files: files, Edges: link.Edges}
	if err != nil {
		return rep, err
	}
	// Round 2: seeds change the results of the units that receive them
	// and of no other, so only those run again, with their seeds.
	for i, tu := range p.TUs {
		seeds := link.SeedsFor[tu.File]
		if len(seeds) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		fopts := opts
		fopts.ExternSeeds = seeds
		rep.Files[i] = process(ctx, tu, fopts, nil)
	}
	return rep, nil
}

// Analyze is the lint-only project run: Fix under core.LintOptions, the
// same scan and seed routing with both repairs off.
func (p *Project) Analyze(ctx context.Context, opts core.Options) (*Report, error) {
	return p.Fix(ctx, core.LintOptions(opts))
}

// scan is round 1: every unit is processed stand-alone, and the
// functions each defines and the seeds of its external calls are linked
// by defined symbol. The outcomes are final for every unit the link
// routes no seeds to. On cancellation scan returns the outcomes so far.
func (p *Project) scan(ctx context.Context, opts core.Options) (*Link, []FileOutcome, error) {
	link := &Link{
		DefinedBy: make(map[string]string),
		SeedsFor:  make(map[string][]overflow.CallSeed),
	}
	files := make([]FileOutcome, 0, len(p.TUs))
	calls := make([][]overflow.CallSeed, 0, len(p.TUs))
	for _, tu := range p.TUs {
		if err := ctx.Err(); err != nil {
			return link, files, err
		}
		var facts linkFacts
		files = append(files, process(ctx, tu, opts, &facts))
		calls = append(calls, facts.calls)
		for _, name := range facts.defines {
			if _, dup := link.DefinedBy[name]; !dup {
				link.DefinedBy[name] = tu.File
			}
		}
	}
	for i, tu := range p.TUs {
		for _, seed := range calls[i] {
			target, defined := link.DefinedBy[seed.Callee]
			if !defined || target == tu.File {
				// Library calls and (degenerate) self-routing stay local.
				continue
			}
			link.Edges = append(link.Edges, CrossEdge{
				CallerFile: tu.File, Caller: seed.Caller,
				CalleeFile: target, Callee: seed.Callee,
			})
			link.SeedsFor[target] = append(link.SeedsFor[target], seed)
		}
	}
	return link, files, nil
}

// linkFacts is what the linker reads off one unit's parse: the functions
// it defines and the seeds of its calls to functions it does not.
type linkFacts struct {
	defines []string
	calls   []overflow.CallSeed
}

// process runs one unit under one per-file deadline: preprocess, parse,
// then the fix body on that parse. In the scan round, facts is
// non-nil and process also reads the unit's link facts off the same
// snapshot, after the body, so the body sees the snapshot exactly as a
// fresh run would. Only the outcome and the facts outlive the call; the
// preprocess and the parse do not. A unit that fails before its body
// ran, or whose facts cannot be read, takes part in no link.
func process(ctx context.Context, tu *TU, opts core.Options, facts *linkFacts) FileOutcome {
	out := FileOutcome{File: tu.File}
	ctx, cancel := core.FileContext(ctx, opts)
	defer cancel()
	pp, snap, err := core.ParsePreprocessed(ctx, tu.File, tu.Source, tu.CppOpts, opts)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Fix, err = core.FixParsed(ctx, tu.File, tu.Source, tu.CppOpts, pp, snap, opts)
	if err != nil {
		out.Err = err.Error()
	} else {
		out.Includes = pp.Includes
	}
	if facts == nil {
		return out
	}
	calls, err := externalCalls(snap)
	if err != nil {
		return FileOutcome{File: tu.File, Err: "link: " + err.Error()}
	}
	for _, fn := range snap.Unit().Funcs {
		facts.defines = append(facts.defines, fn.Name)
	}
	facts.calls = calls
	return out
}

// externalCalls is snap.ExternalCalls with a deadline cut or a panic
// returned as an error.
func externalCalls(snap *analysis.Snapshot) (calls []overflow.CallSeed, err error) {
	defer fault.Recover(&err)
	return snap.ExternalCalls(), nil
}
