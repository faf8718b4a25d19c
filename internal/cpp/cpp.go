// Package cpp is a C preprocessor that emits preprocessed text plus a
// source map. The map lets downstream tools (the rewriter, the LSP)
// translate every extent in the preprocessed text back to the file and
// offset the user actually wrote, and — crucially — tells them when an
// extent lies inside a macro expansion or an included header, where an
// in-place edit of the main file would be wrong.
//
// Design choice: output is produced by VERBATIM COPY. Bytes flow from
// the original files untouched except at "interesting points" (directive
// lines, macro invocations, line continuations), so a file with no
// directives and no macro invocations preprocesses to itself, byte for
// byte, under a single Direct map segment. That identity is what makes
// the SAMATE differential suite trivially exact.
package cpp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ctoken"
)

// srcFile is one original file being preprocessed.
type srcFile struct {
	name string
	src  string
}

// Options configure one preprocessing run.
type Options struct {
	// IncludeDirs are searched (in order) for #include targets; a
	// quoted include first tries the including file's directory.
	IncludeDirs []string
	// Defines predefines object-like macros (as if by -D NAME=VALUE).
	// An empty value defines the macro to an empty replacement.
	Defines map[string]string
	// Open, when non-nil, replaces the filesystem: it returns the
	// content of path and whether it exists. Used by cfixd to serve
	// in-request virtual file sets.
	Open func(path string) (string, bool)
	// MaxDepth bounds #include nesting (default 64).
	MaxDepth int
	// MaxExpansions bounds the total number of macro replacements
	// (default 200000); exceeding it stops expansion with a diagnostic
	// rather than looping.
	MaxExpansions int
}

// Result is the outcome of preprocessing one translation unit.
type Result struct {
	// Text is the preprocessed output.
	Text string
	// Map translates extents in Text back to the original files.
	Map *SourceMap
	// Includes lists the resolved paths inlined, in first-seen order.
	Includes []string
	// Missing lists #include targets that could not be resolved; their
	// directive lines pass through verbatim (the downstream lexer
	// treats them as directives and the parser ignores them).
	Missing []string
	// Errors are diagnostics (file:line: message). Empty on a clean run.
	Errors []string
}

// cond is one entry of the conditional-inclusion stack.
type cond struct {
	parent  bool // the enclosing context was active at #if time
	taken   bool // this branch is currently emitting
	ever    bool // some branch of this #if already emitted
	sawElse bool
}

// preprocessor holds the state of one run.
type preprocessor struct {
	opts     Options
	macros   map[string]*macro
	out      output
	files    map[string]string // every original file read, name -> content
	lines    map[string]*ctoken.File
	once     map[string]bool // #pragma once
	includes []string
	included map[string]bool
	missing  []string
	errs     []string
	budget   int
	blown    bool
	cond     []cond
	condMin  int // stack floor for the file being processed
	depth    int
}

// Preprocess runs the preprocessor over source (named filename for
// include resolution and diagnostics). It never fails on malformed
// input: diagnostics land in Result.Errors and the output keeps as much
// of the original bytes as possible.
func Preprocess(filename, source string, opts Options) (*Result, error) {
	pp := newPreprocessor(opts)
	f := &srcFile{name: filename, src: source}
	pp.processFile(f)
	m := &SourceMap{
		main:  filename,
		segs:  pp.out.segs,
		files: pp.files,
		pos:   make(map[string]*ctoken.File),
	}
	res := &Result{
		Text:     string(pp.out.b),
		Map:      m,
		Includes: pp.includes,
		Missing:  pp.missing,
		Errors:   pp.errs,
	}
	return res, nil
}

func readThrough(open func(string) (string, bool), path string) (string, bool) {
	if open != nil {
		return open(path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	return string(b), true
}

func newPreprocessor(opts Options) *preprocessor {
	pp := &preprocessor{
		opts:     opts,
		macros:   make(map[string]*macro),
		files:    make(map[string]string),
		lines:    make(map[string]*ctoken.File),
		once:     make(map[string]bool),
		included: make(map[string]bool),
		budget:   opts.MaxExpansions,
	}
	if pp.budget <= 0 {
		pp.budget = 200000
	}
	pp.macros["__FILE__"] = &macro{name: "__FILE__", builtin: builtinFile}
	pp.macros["__LINE__"] = &macro{name: "__LINE__", builtin: builtinLine}
	// A minimal standard environment so real headers' guards behave.
	for _, d := range [...][2]string{{"__STDC__", "1"}, {"__STDC_HOSTED__", "1"}, {"__STDC_VERSION__", "201112L"}} {
		pp.defineFromString(d[0], d[1])
	}
	names := make([]string, 0, len(opts.Defines))
	for k := range opts.Defines {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		pp.defineFromString(k, opts.Defines[k])
	}
	return pp
}

// defineFromString installs NAME=VALUE as an object-like macro.
func (pp *preprocessor) defineFromString(name, value string) {
	repl := lexAll(value)
	for i := range repl {
		repl[i].file = nil
		repl[i].pos, repl[i].end = -1, -1
		if i == 0 {
			repl[i].ws = false
		}
	}
	pp.macros[name] = &macro{name: name, repl: repl}
}

func builtinFile(pp *preprocessor, at ptok) []ptok {
	name := "<synthesized>"
	if at.file != nil {
		name = at.file.name
	}
	return []ptok{{kind: tkStr, text: strconv.Quote(name), pos: -1, end: -1, ws: at.ws, hide: at.hide}}
}

func builtinLine(pp *preprocessor, at ptok) []ptok {
	return []ptok{{kind: tkNum, text: strconv.Itoa(pp.lineOf(at)), pos: -1, end: -1, ws: at.ws, hide: at.hide}}
}

// lineOf returns the 1-based line of a token in its file (0 when
// synthesized).
func (pp *preprocessor) lineOf(t ptok) int {
	if t.file == nil || t.pos < 0 {
		return 0
	}
	lt := pp.lines[t.file.name]
	if lt == nil {
		lt = ctoken.NewFile(t.file.name, t.file.src)
		pp.lines[t.file.name] = lt
	}
	return lt.Position(ctoken.Pos(t.pos)).Line
}

// errorAt records a diagnostic located at a token.
func (pp *preprocessor) errorAt(t ptok, msg string) {
	if len(pp.errs) >= 100 {
		return
	}
	file := "<synthesized>"
	if t.file != nil {
		file = t.file.name
	}
	pp.errs = append(pp.errs, fmt.Sprintf("%s:%d: %s", file, pp.lineOf(t), msg))
}

// spendExpansion debits the expansion budget; once it runs out every
// further expansion is declined (leaving text unexpanded) so runaway
// macro chains terminate.
func (pp *preprocessor) spendExpansion(t ptok) bool {
	if pp.budget <= 0 {
		if !pp.blown {
			pp.blown = true
			pp.errorAt(t, "macro expansion budget exhausted")
		}
		return false
	}
	pp.budget--
	return true
}

// active reports whether the current conditional context emits output.
// Each stack entry's taken already folds in its parent's state, so the
// top entry alone decides.
func (pp *preprocessor) active() bool {
	return len(pp.cond) == 0 || pp.cond[len(pp.cond)-1].taken
}

func (pp *preprocessor) maxDepth() int {
	if pp.opts.MaxDepth > 0 {
		return pp.opts.MaxDepth
	}
	return 64
}

// processFile runs the text processor over one file, appending to the
// shared output. Conditionals must balance within the file.
func (pp *preprocessor) processFile(f *srcFile) {
	if _, ok := pp.files[f.name]; !ok {
		pp.files[f.name] = f.src
	}
	s := newScanner(f, 0)
	copyStart := 0
	bol := true // '#' introduces a directive only at the start of a line
	flush := func(upto int) {
		if pp.active() {
			pp.out.copyDirect(f, copyStart, upto)
		}
	}
	for {
		t := s.next()
		if t.kind == tkEOF {
			flush(len(f.src))
			break
		}
		switch {
		case t.kind == tkNewline:
			bol = true
		case t.kind == tkComment:
			// A spliced line comment swallowed following physical lines;
			// its raw bytes would lex differently downstream, so replace
			// it with one space.
			if t.spliced && pp.active() {
				flush(t.pos)
				pp.out.emit(" ", SegSynth, f.name, t.pos, t.end, "")
				copyStart = t.end
			}
		case t.kind == tkSplice:
			// Scrub the backslash-newline; the surrounding bytes join.
			if pp.active() {
				flush(t.pos)
				copyStart = t.end
			}
		case t.kind == tkPunct && t.text == "#" && bol:
			pp.directive(f, s, t, flush, &copyStart)
			bol = true
		case !pp.active():
			bol = false
		case t.kind == tkIdent:
			bol = false
			if m := pp.macros[t.text]; m != nil && !t.hidden(t.text) {
				if pp.tryExpand(f, s, t, m, &copyStart) {
					continue
				}
			}
			if t.spliced {
				flush(t.pos)
				pp.emitSynthTok(f, t)
				copyStart = t.end
			}
		default:
			bol = false
			if t.spliced {
				flush(t.pos)
				pp.emitSynthTok(f, t)
				copyStart = t.end
			}
		}
	}
	for len(pp.cond) > pp.condMin {
		pp.errorAt(ptok{file: f, pos: len(f.src)}, "unterminated conditional")
		pp.cond = pp.cond[:len(pp.cond)-1]
	}
}

// emitSynthTok emits a token whose de-spliced spelling differs from its
// raw bytes.
func (pp *preprocessor) emitSynthTok(f *srcFile, t ptok) {
	pp.out.emit(t.text, SegSynth, f.name, t.pos, t.end, "")
	pp.maybeSpace(f, t.end)
}

// maybeSpace inserts a separating space when the last emitted byte and
// the next original byte would otherwise lex as one token (e.g. an
// expansion ending in an identifier followed immediately by another
// identifier character).
func (pp *preprocessor) maybeSpace(f *srcFile, next int) {
	last := pp.out.lastByte()
	if last == 0 || last <= ' ' || next >= len(f.src) {
		return
	}
	c := f.src[next]
	if c <= ' ' {
		return
	}
	// A closing quote self-terminates its literal: nothing after it can
	// merge backward into it.
	if last == '"' || last == '\'' {
		return
	}
	merge := false
	switch {
	case isIdentCont(last) && (isIdentCont(c) || c == '"' || c == '\''):
		// identifier run, or an encoding-prefix hazard like L"...".
		merge = true
	case c == '"' || c == '\'':
		// punctuation before a fresh literal never merges.
	case len(lexAll(string([]byte{last, c}))) != 2:
		merge = true
	}
	if merge {
		pp.out.emit(" ", SegSynth, f.name, next, next, "")
	}
}

// tryExpand expands a macro-candidate identifier in running text. It
// returns false for a function-like macro name not followed by '(',
// with the scanner repositioned just after the identifier.
func (pp *preprocessor) tryExpand(f *srcFile, s *scanner, t ptok, m *macro, copyStart *int) bool {
	invEnd := t.end
	toks := []ptok{t}
	if m.funcLike {
		// Look ahead (across newlines and comments) for the '('.
		found := false
		for {
			n := s.next()
			if n.kind == tkComment || n.kind == tkNewline || n.kind == tkSplice {
				continue
			}
			if n.kind == tkPunct && n.text == "(" {
				toks = append(toks, n)
				found = true
			}
			break
		}
		if !found {
			s.off = t.end
			return false
		}
		depth := 1
		for depth > 0 {
			x := s.next()
			if x.kind == tkEOF {
				pp.errorAt(t, fmt.Sprintf("unterminated invocation of macro %q", m.name))
				s.off = t.end
				return false
			}
			toks = append(toks, x)
			if x.kind == tkPunct {
				switch x.text {
				case "(":
					depth++
				case ")":
					depth--
				}
			}
		}
		invEnd = toks[len(toks)-1].end
	}
	text := renderTokens(pp.expandList(toks))
	pp.out.copyDirect(f, *copyStart, t.pos)
	pp.out.emit(text, SegMacro, f.name, t.pos, invEnd, m.name)
	*copyStart = invEnd
	pp.maybeSpace(f, invEnd)
	return true
}

// readDirectiveLine collects the tokens of a directive up to the
// end-of-line, honoring line continuations and treating comments as
// whitespace. It returns the offset just past the terminating newline.
func readDirectiveLine(s *scanner) (toks []ptok, lineEnd int) {
	pending := false
	for {
		t := s.next()
		switch t.kind {
		case tkEOF, tkNewline:
			return toks, t.end
		case tkComment, tkSplice:
			pending = true
		default:
			if pending {
				t.ws = true
				pending = false
			}
			toks = append(toks, t)
		}
	}
}

// directive parses and executes one directive line. On return the
// scanner sits just past the line and copyStart points there too: a
// directive line contributes no output bytes unless it explicitly
// passes itself through (unresolved #include, unknown #pragma).
func (pp *preprocessor) directive(f *srcFile, s *scanner, hash ptok, flush func(int), copyStart *int) {
	flush(hash.pos)
	toks, lineEnd := readDirectiveLine(s)
	defer func() { *copyStart = lineEnd }()

	if len(toks) == 0 {
		return // null directive
	}
	name := toks[0]
	if name.kind != tkIdent {
		return // '# 1 "file"' line markers and junk: ignored
	}

	switch name.text {
	case "ifdef", "ifndef":
		act := pp.active()
		taken := false
		if act {
			if len(toks) < 2 || toks[1].kind != tkIdent {
				pp.errorAt(name, "#"+name.text+" requires an identifier")
			} else {
				defined := pp.macros[toks[1].text] != nil
				taken = defined == (name.text == "ifdef")
			}
		}
		pp.cond = append(pp.cond, cond{parent: act, taken: act && taken, ever: !act || taken})
		return
	case "if":
		act := pp.active()
		taken := false
		if act {
			taken = pp.evalCond(toks[1:], name)
		}
		pp.cond = append(pp.cond, cond{parent: act, taken: act && taken, ever: !act || taken})
		return
	case "elif":
		if len(pp.cond) <= pp.condMin {
			pp.errorAt(name, "#elif without #if")
			return
		}
		c := &pp.cond[len(pp.cond)-1]
		if c.sawElse {
			pp.errorAt(name, "#elif after #else")
		}
		c.taken = false
		if c.parent && !c.ever && !c.sawElse {
			v := pp.evalCond(toks[1:], name)
			c.taken = v
			c.ever = v
		}
		return
	case "else":
		if len(pp.cond) <= pp.condMin {
			pp.errorAt(name, "#else without #if")
			return
		}
		c := &pp.cond[len(pp.cond)-1]
		if c.sawElse {
			pp.errorAt(name, "duplicate #else")
		}
		c.taken = c.parent && !c.ever
		c.ever = true
		c.sawElse = true
		return
	case "endif":
		if len(pp.cond) <= pp.condMin {
			pp.errorAt(name, "#endif without #if")
			return
		}
		pp.cond = pp.cond[:len(pp.cond)-1]
		return
	}

	if !pp.active() {
		return
	}

	switch name.text {
	case "define":
		pp.handleDefine(name, toks[1:])
	case "undef":
		if len(toks) >= 2 && toks[1].kind == tkIdent {
			delete(pp.macros, toks[1].text)
		} else {
			pp.errorAt(name, "#undef requires an identifier")
		}
	case "include", "include_next":
		pp.handleInclude(f, hash, toks[1:], lineEnd)
	case "pragma":
		if len(toks) >= 2 && toks[1].kind == tkIdent && toks[1].text == "once" {
			pp.once[filepath.Clean(f.name)] = true
			return
		}
		// Unknown pragmas pass through verbatim; the downstream lexer
		// files them as directive trivia.
		pp.out.copyDirect(f, hash.pos, lineEnd)
	case "error":
		pp.errorAt(name, "#error "+renderTokens(toks[1:]))
	case "warning", "line", "ident", "sccs", "assert", "unassert":
		// Accepted and dropped.
	default:
		pp.errorAt(name, "unknown directive #"+name.text)
	}
}

// handleDefine installs a macro definition.
func (pp *preprocessor) handleDefine(at ptok, toks []ptok) {
	if len(toks) == 0 || toks[0].kind != tkIdent {
		pp.errorAt(at, "#define requires an identifier")
		return
	}
	nameTok := toks[0]
	m := &macro{name: nameTok.text}
	rest := toks[1:]
	if len(rest) > 0 && rest[0].kind == tkPunct && rest[0].text == "(" && !rest[0].ws {
		// Function-like: '(' immediately after the name, no whitespace.
		m.funcLike = true
		i := 1
		for i < len(rest) {
			t := rest[i]
			if t.kind == tkPunct && t.text == ")" {
				i++
				break
			}
			if t.kind == tkIdent {
				m.params = append(m.params, t.text)
			} else if t.kind == tkPunct && t.text == "..." {
				m.params = append(m.params, "...")
				m.variadic = true
			} else if t.kind == tkPunct && t.text == "," {
				i++
				continue
			} else {
				pp.errorAt(t, "malformed macro parameter list")
			}
			i++
		}
		rest = rest[i:]
	}
	m.repl = make([]ptok, len(rest))
	copy(m.repl, rest)
	if len(m.repl) > 0 {
		m.repl[0].ws = false
		first, last := m.repl[0], m.repl[len(m.repl)-1]
		if (first.kind == tkPunct && first.text == "##") || (last.kind == tkPunct && last.text == "##") {
			pp.errorAt(at, "'##' cannot appear at either end of a macro")
		}
	}
	if old := pp.macros[m.name]; old != nil && !old.sameDef(m) {
		pp.errorAt(nameTok, fmt.Sprintf("macro %q redefined", m.name))
	}
	pp.macros[m.name] = m
}

// includeTarget parses the operand of #include from its token list.
func includeTarget(toks []ptok) (name string, local, ok bool) {
	if len(toks) == 0 {
		return "", false, false
	}
	if toks[0].kind == tkStr && len(toks[0].text) >= 2 {
		t := toks[0].text
		return t[1 : len(t)-1], true, true
	}
	if toks[0].kind == tkPunct && toks[0].text == "<" {
		var b strings.Builder
		for _, t := range toks[1:] {
			if t.kind == tkPunct && t.text == ">" {
				return b.String(), false, b.Len() > 0
			}
			b.WriteString(t.text)
		}
	}
	return "", false, false
}

// handleInclude resolves and inlines an include target. Unresolvable
// targets pass the directive line through verbatim (recorded in
// Missing) so system headers degrade to the pre-project behavior: the
// downstream parser ignores the directive line.
func (pp *preprocessor) handleInclude(f *srcFile, hash ptok, toks []ptok, lineEnd int) {
	name, local, ok := includeTarget(toks)
	if !ok {
		// The operand may be macro-spelled: #include MYHDR.
		name, local, ok = includeTarget(pp.expandList(toks))
	}
	if !ok {
		pp.errorAt(hash, "malformed #include")
		pp.out.copyDirect(f, hash.pos, lineEnd)
		return
	}
	path, src, found := pp.resolve(name, local, filepath.Dir(f.name))
	if !found {
		seen := false
		for _, m := range pp.missing {
			if m == name {
				seen = true
				break
			}
		}
		if !seen {
			pp.missing = append(pp.missing, name)
		}
		pp.out.copyDirect(f, hash.pos, lineEnd)
		return
	}
	if pp.once[path] {
		return
	}
	if pp.depth >= pp.maxDepth() {
		pp.errorAt(hash, fmt.Sprintf("#include nested too deeply (limit %d); cycle?", pp.maxDepth()))
		return
	}
	if !pp.included[path] {
		pp.included[path] = true
		pp.includes = append(pp.includes, path)
	}
	if n := len(pp.out.b); n > 0 && pp.out.lastByte() != '\n' {
		pp.out.emit("\n", SegSynth, f.name, hash.pos, hash.pos, "")
	}
	nf := &srcFile{name: path, src: src}
	savedMin := pp.condMin
	pp.condMin = len(pp.cond)
	pp.depth++
	pp.processFile(nf)
	pp.depth--
	pp.condMin = savedMin
	if pp.out.lastByte() != '\n' && len(pp.out.b) > 0 {
		pp.out.emit("\n", SegSynth, path, len(src), len(src), "")
	}
}

// resolve maps an include spelling to a path and its content.
func (pp *preprocessor) resolve(name string, local bool, fromDir string) (string, string, bool) {
	var cands []string
	if filepath.IsAbs(name) {
		cands = []string{name}
	} else {
		if local {
			cands = append(cands, filepath.Join(fromDir, name))
		}
		for _, d := range pp.opts.IncludeDirs {
			cands = append(cands, filepath.Join(d, name))
		}
	}
	for _, c := range cands {
		c = filepath.Clean(c)
		if src, ok := pp.files[c]; ok {
			return c, src, true
		}
		if src, ok := readThrough(pp.opts.Open, c); ok {
			return c, src, true
		}
	}
	return "", "", false
}
