package cfix

import (
	"context"

	"repro/internal/project"
)

// Project mode runs the pipeline across a whole C project instead of one
// already-preprocessed translation unit: sources are preprocessed by the
// built-in preprocessor (includes, macros, conditionals), analyses see
// the expanded text, and every repair is remapped back into the file the
// user wrote. Repairs that land inside macro expansions or included
// headers are declined with an explicit reason instead of applied.
// Cross-file interprocedural facts flow between translation units, so a
// caller in one file can expose an overflow in another.

// ProjectReport is the outcome of a project run: one outcome per
// translation unit plus the linked cross-file call edges.
type ProjectReport = project.Report

// CrossEdge is one resolved cross-file call.
type CrossEdge = project.CrossEdge

// FixProject loads a Clang-style compile_commands.json database and
// fixes every C translation unit in it. Options.SelectOffset is ignored
// (project mode is always batch). Per-file failures are recorded in the
// outcomes; the returned error is reserved for database loading problems
// and context cancellation.
func FixProject(ctx context.Context, compileCommands string, opts Options) (*ProjectReport, error) {
	p, err := project.Load(compileCommands)
	if err != nil {
		return nil, err
	}
	return p.Fix(ctx, coreOptions(opts))
}

// AnalyzeProject is the lint-only FixProject: the same preprocessing,
// linking, and cross-file seeding with both repairs off, so every
// outcome's report carries findings and the unit's own text.
func AnalyzeProject(ctx context.Context, compileCommands string, opts Options) (*ProjectReport, error) {
	p, err := project.Load(compileCommands)
	if err != nil {
		return nil, err
	}
	return p.Analyze(ctx, coreOptions(opts))
}

// FixProjectInMemory fixes a project supplied as in-memory sources:
// files maps translation-unit names to C text, headers maps include
// names to header text. This is the daemon's batch mode; nothing touches
// the filesystem.
func FixProjectInMemory(ctx context.Context, files, headers map[string]string, opts Options) (*ProjectReport, error) {
	return project.InMemory(files, headers, nil).Fix(ctx, coreOptions(opts))
}

// AnalyzeProjectInMemory is the lint-only FixProjectInMemory.
func AnalyzeProjectInMemory(ctx context.Context, files, headers map[string]string, opts Options) (*ProjectReport, error) {
	return project.InMemory(files, headers, nil).Analyze(ctx, coreOptions(opts))
}

// ProjectRequest asks the daemon to process a whole project in one
// request (POST /v1/project). Sources travel inline — the daemon never
// touches a filesystem. Files maps translation-unit names to C text;
// Headers maps include names (as spelled in #include directives, plus
// any include-dir-relative paths) to header text.
type ProjectRequest struct {
	Files    map[string]string `json:"files"`
	Headers  map[string]string `json:"headers,omitempty"`
	LintOnly bool              `json:"lint_only,omitempty"`
	Options  RequestOptions    `json:"options,omitempty"`
}

// ProjectFileJSON is one translation unit's slice of a project
// response.
type ProjectFileJSON struct {
	File string `json:"file"`
	// Fix carries the transformation outcome (absent for lint-only
	// requests and failed files).
	Fix *FixResponse `json:"fix,omitempty"`
	// Findings carries lint-only findings (positions are in the
	// ORIGINAL pre-expansion sources; macro-expanded findings point at
	// the invocation).
	Findings []FindingJSON `json:"findings,omitempty"`
	Degraded []string      `json:"degraded,omitempty"`
	// Includes lists the headers the preprocessor inlined, first-use
	// order.
	Includes []string `json:"includes,omitempty"`
	Err      string   `json:"err,omitempty"`
}

// ProjectResponse is the daemon's answer to a ProjectRequest.
type ProjectResponse struct {
	Files []ProjectFileJSON `json:"files"`
	// Edges lists the cross-file calls the scan round linked.
	Edges []CrossEdge `json:"edges,omitempty"`
}

// NewProjectResponse renders a project report in the wire shape: with
// lint set (a lint_only request) each outcome as findings and
// degradations, otherwise as a fix response.
func NewProjectResponse(rep *ProjectReport, lint bool) ProjectResponse {
	resp := ProjectResponse{Edges: rep.Edges}
	for _, out := range rep.Files {
		fj := ProjectFileJSON{File: out.File, Includes: out.Includes, Err: out.Err}
		switch {
		case out.Fix == nil:
		case lint:
			fj.Findings = NewFindingsJSON(out.Fix.Findings)
			fj.Degraded = out.Fix.Degraded
		default:
			fr := NewFixResponse(out.File, out.Fix)
			fj.Fix = &fr
		}
		resp.Files = append(resp.Files, fj)
	}
	return resp
}
