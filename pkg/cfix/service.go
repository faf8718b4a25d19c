package cfix

import (
	"time"

	"repro/internal/core"
)

// This file defines the wire types of the cfixd HTTP/JSON API
// (internal/server, cmd/cfixd): client-friendly request and response
// shapes that downstream tools can import without touching internal
// packages. The field encodings are stable; additions are
// backwards-compatible.

// RequestOptions is the JSON shape of the per-request knobs, mirroring
// Options. The zero value requests the default full pipeline in batch
// mode.
type RequestOptions struct {
	// DisableSLR / DisableSTR switch off one transformation.
	DisableSLR bool `json:"disable_slr,omitempty"`
	DisableSTR bool `json:"disable_str,omitempty"`
	// SelectOffset, when present, restricts SLR to the call expression
	// covering this byte offset (the case-by-case workflow); absent
	// means batch mode.
	SelectOffset *int `json:"select_offset,omitempty"`
	// EmitSupport prepends the stralloc library and glib prototypes so
	// the response source is a self-contained translation unit.
	EmitSupport bool `json:"emit_support,omitempty"`
	// Lint additionally runs the static overflow oracle and attaches
	// findings to the fix response.
	Lint bool `json:"lint,omitempty"`
	// Checks selects which lint oracles run: "buf", "int", "all", or a
	// comma list. Empty means "buf".
	Checks string `json:"checks,omitempty"`
	// Backend names the safe-function dialect SLR rewrites to: "glib",
	// "bsd", or "c11k". Empty selects the server's configured default
	// (glib unless cfixd ran with -backend); unknown names fail the
	// request with 400.
	Backend string `json:"backend,omitempty"`
	// TimeoutMs bounds the request's processing in milliseconds. The
	// server clamps it to its configured maximum and applies its default
	// when absent.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Budget bounds every fixpoint solver's iterations; exhaustion
	// degrades conservatively and is reported in the response's
	// degraded list, never silently.
	Budget int `json:"budget,omitempty"`
	// KeepGoing returns partial results instead of an error when a
	// later pipeline stage fails.
	KeepGoing bool `json:"keep_going,omitempty"`
}

// ToOptions converts the wire options to library Options. The timeout
// is carried over verbatim; servers clamp it before calling.
func (o RequestOptions) ToOptions() Options {
	opts := Options{
		DisableSLR:  o.DisableSLR,
		DisableSTR:  o.DisableSTR,
		SelectAll:   o.SelectOffset == nil,
		EmitSupport: o.EmitSupport,
		Lint:        o.Lint,
		Checks:      o.Checks,
		Backend:     o.Backend,
		Timeout:     time.Duration(o.TimeoutMs) * time.Millisecond,
		Budget:      o.Budget,
		KeepGoing:   o.KeepGoing,
	}
	if o.SelectOffset != nil {
		opts.SelectOffset = *o.SelectOffset
	}
	return opts
}

// RequestKey derives the content-addressed fingerprint of one service
// request — the same key the result cache stores its outcome under
// (sha256 over source text, options fingerprint, diagnostic filename).
// kind is "fix" or "lint"; a lint request's key is that of its lint
// options, which Analyze caches under. The fleet router
// consistent-hashes by this key, so identical requests always land on
// the shard whose cache already holds (or is computing) their result.
func RequestKey(kind, filename, source string, o RequestOptions) string {
	opts := coreOptions(o.ToOptions())
	if kind == "lint" {
		opts = core.LintOptions(opts)
	}
	return core.CacheKey(filename, source, opts)
}

// FixRequest asks the service to transform one preprocessed C
// translation unit (POST /v1/fix).
type FixRequest struct {
	// Filename is used in diagnostics only; it defaults to "input.c".
	Filename string         `json:"filename,omitempty"`
	Source   string         `json:"source"`
	Options  RequestOptions `json:"options,omitempty"`
}

// FixResponse is the service's answer to a FixRequest. Source is
// byte-identical to what a one-shot `cfix` run over the same input and
// options would write.
type FixResponse struct {
	Filename string `json:"filename,omitempty"`
	// Source is the transformed translation unit.
	Source string `json:"source"`
	// Changed reports whether any edit was applied.
	Changed bool `json:"changed"`
	// Summary is the human-readable per-site/per-variable change log.
	Summary string `json:"summary,omitempty"`
	// SLRApplied/SLRCandidates and STRApplied/STRCandidates count the
	// transformed and candidate sites/variables.
	SLRApplied    int `json:"slr_applied"`
	SLRCandidates int `json:"slr_candidates"`
	STRApplied    int `json:"str_applied"`
	STRCandidates int `json:"str_candidates"`
	// Backend is the canonical name of the repair dialect the fix
	// targeted ("glib" for the default).
	Backend string `json:"backend,omitempty"`
	// NeedsGlib / NeedsStralloc describe link-time requirements when
	// support code was not emitted inline (NeedsGlib means "needs the
	// backend's library"; the field name predates pluggable backends).
	NeedsGlib     bool `json:"needs_glib,omitempty"`
	NeedsStralloc bool `json:"needs_stralloc,omitempty"`
	// Findings holds the static overflow oracle's verdicts (set when
	// Options.Lint was true).
	Findings []FindingJSON `json:"findings,omitempty"`
	// Degraded explains every way this result is weaker than a full
	// run; empty for a full-fidelity report.
	Degraded []string `json:"degraded,omitempty"`
	// Cached reports that the result was served from the
	// content-addressed result cache.
	Cached bool `json:"cached"`
}

// NewFixResponse renders a report in the service's wire shape.
func NewFixResponse(filename string, rep *Report) FixResponse {
	resp := FixResponse{
		Filename:      filename,
		Source:        rep.Source,
		Changed:       rep.Changed(),
		Summary:       rep.Summary(),
		Backend:       rep.Backend,
		NeedsGlib:     rep.NeedsGlib,
		NeedsStralloc: rep.NeedsStralloc,
		Findings:      NewFindingsJSON(rep.Findings),
		Degraded:      rep.Degraded,
		Cached:        rep.Cached,
	}
	if rep.SLR != nil {
		resp.SLRApplied, resp.SLRCandidates = rep.SLR.AppliedCount(), rep.SLR.Candidates()
	}
	if rep.STR != nil {
		resp.STRApplied, resp.STRCandidates = rep.STR.AppliedCount(), rep.STR.Candidates()
	}
	return resp
}

// LintRequest asks the service to statically diagnose one translation
// unit without transforming it (POST /v1/lint).
type LintRequest struct {
	Filename string         `json:"filename,omitempty"`
	Source   string         `json:"source"`
	Options  RequestOptions `json:"options,omitempty"`
}

// LintResponse is the service's answer to a LintRequest.
type LintResponse struct {
	Filename string        `json:"filename,omitempty"`
	Findings []FindingJSON `json:"findings"`
	// Definite reports whether any finding is a definite overflow — the
	// same signal as `cfix -lint`'s exit code 3.
	Definite bool `json:"definite"`
	// Degraded lists the analyses that had to degrade to conservative
	// results; a non-empty list qualifies the findings.
	Degraded []string `json:"degraded,omitempty"`
	Cached   bool     `json:"cached"`
}

// NewLintResponse renders a lint run's report (Analyze) in the
// service's wire shape.
func NewLintResponse(filename string, rep *Report) LintResponse {
	resp := LintResponse{
		Filename: filename,
		// A clean file answers with an explicit empty list, not null:
		// "no findings" is the result, not a missing field.
		Findings: []FindingJSON{},
		Degraded: rep.Degraded,
		Cached:   rep.Cached,
	}
	if fs := NewFindingsJSON(rep.Findings); fs != nil {
		resp.Findings = fs
	}
	for _, f := range rep.Findings {
		if f.Severity == SevDefinite {
			resp.Definite = true
		}
	}
	return resp
}

// BatchFile names one translation unit inside a batch request.
type BatchFile struct {
	Filename string `json:"filename"`
	Source   string `json:"source"`
}

// BatchRequest processes many translation units in one request through
// the server's worker pool (POST /v1/batch). With Lint true the files
// are statically analyzed instead of transformed.
type BatchRequest struct {
	Files   []BatchFile    `json:"files"`
	Options RequestOptions `json:"options,omitempty"`
	Lint    bool           `json:"lint,omitempty"`
}

// BatchResult is the per-file outcome inside a BatchResponse: exactly
// one of Error, Fix, or Lint is set.
type BatchResult struct {
	Filename string `json:"filename"`
	// Error carries the file's failure (parse error, timeout, contained
	// panic) without failing its batch-mates.
	Error string        `json:"error,omitempty"`
	Fix   *FixResponse  `json:"fix,omitempty"`
	Lint  *LintResponse `json:"lint,omitempty"`
}

// BatchResponse pairs every batch input with its outcome, in input
// order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// FindingJSON is the stable JSON shape of one static overflow finding —
// the same lines `cfix -lint -json` streams.
type FindingJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	CWE      int    `json:"cwe"`
	CWEName  string `json:"cwe_name"`
	Severity string `json:"severity"`
	Function string `json:"function"`
	Object   string `json:"object,omitempty"`
	Message  string `json:"message"`
	Fix      string `json:"fix"`
	// Guard is the suggested (never applied) IntRepair-style
	// precondition check attached to integer-overflow findings.
	Guard    string   `json:"guard,omitempty"`
	Contexts []string `json:"contexts,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
}

// NewFindingJSON renders one finding in the wire shape.
func NewFindingJSON(f Finding) FindingJSON {
	return FindingJSON{
		File:     f.Pos.File,
		Line:     f.Pos.Line,
		Col:      f.Pos.Col,
		CWE:      f.CWE,
		CWEName:  CWEName(f.CWE),
		Severity: f.Severity.String(),
		Function: f.Function,
		Object:   f.Object,
		Message:  f.Msg,
		Fix:      f.SuggestedFix,
		Guard:    f.Guard,
		Contexts: f.Contexts,
		Degraded: f.Degraded,
	}
}

// NewFindingsJSON renders a finding slice in the wire shape (nil for
// an empty slice, keeping `"findings"` omitted rather than `[]` in
// responses that had none).
func NewFindingsJSON(fs []Finding) []FindingJSON {
	if len(fs) == 0 {
		return nil
	}
	out := make([]FindingJSON, len(fs))
	for i, f := range fs {
		out[i] = NewFindingJSON(f)
	}
	return out
}
