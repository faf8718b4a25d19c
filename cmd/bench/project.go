package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/project"
	"repro/pkg/cfix"
)

// project is `cfix -p` on a libtiff-shaped project: the 80 libtiff
// translation units of internal/corpus, each including two seeded shared
// headers of about 400 lines, plus crossPairs planted cross-file overflow
// pairs shaped like the _TIFFmemset8 case study. It is the only workload
// that runs the preprocessor (three passes per unit) and the project
// link. Two clients run the whole project, each again as soon as its
// last run finished: with one, the second core idles between garbage
// collections, and the time to wake it set the run-to-run spread.

const (
	projectClients = 2
	projectFiller  = 4
	crossPairs     = 16
	// The paper's libtiff rows: Table V (SLR sites) and Table VI (STR
	// char pointers), which the corpus plants exactly.
	wantSLRApplied, wantSLRSites = 88, 109
	wantSTRApplied, wantSTRVars  = 68, 84
)

// projectOptions is the request every run makes: fix with the buffer
// oracle's findings attached.
var projectOptions = cfix.Options{Lint: true}

type projectRun struct {
	files, headers map[string]string
	// callee maps each planted callee to the file that defines it.
	callee map[string]string
}

// setupProject generates the project and runs it once: set-up ends with
// the first result, and a generated project that misses its gates fails
// before anything is measured.
func setupProject(seed int64) (instance, error) {
	files, headers, callee, err := genProject(seed)
	if err != nil {
		return nil, err
	}
	r := &projectRun{files: files, headers: headers, callee: callee}
	rep, _, err := r.fix()
	if err == nil {
		err = r.check(rep)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// genProject builds the project's sources from seed.
func genProject(seed int64) (files, headers, callee map[string]string, err error) {
	p, ok := corpus.ProjectByName("libtiff", projectFiller)
	if !ok {
		return nil, nil, nil, fmt.Errorf("project: corpus has no libtiff project")
	}
	rng := rand.New(rand.NewSource(seed))
	headers = map[string]string{"tiffconf.h": genConfHeader(rng), "tiffio.h": genIOHeader(rng)}
	srcs := make([]string, len(p.Files))
	for i, f := range p.Files {
		srcs[i] = "#include \"tiffio.h\"\n" + f.Source
	}
	// Pair k: tiffb_readdir<k> in one unit clears a TIFFB_TAGBUF<k>-byte
	// buffer through tiffb_memset<k> in another with TIFFB_DIRCNT<k> >
	// TIFFB_TAGBUF<k> bytes. Only the cross-file link proves the overflow.
	callee = make(map[string]string, crossPairs)
	perm := rng.Perm(len(p.Files))
	for k := 0; k < crossPairs; k++ {
		def, use := perm[2*k], perm[2*k+1]
		srcs[def] += fmt.Sprintf("\nvoid tiffb_memset%d(char *p, int v, int n) {\n    int i;\n"+
			"    for (i = 0; i < n; i = i + 1) {\n        p[i] = 'x';\n    }\n}\n", k)
		srcs[use] += fmt.Sprintf("\nvoid tiffb_readdir%d(void) {\n    char tagbuf[TIFFB_TAGBUF%d];\n"+
			"    tiffb_memset%d(tagbuf, 0, TIFFB_DIRCNT%d);\n}\n", k, k, k, k)
		callee[fmt.Sprintf("tiffb_memset%d", k)] = p.Files[def].Name
	}
	files = make(map[string]string, len(p.Files))
	for i, f := range p.Files {
		files[f.Name] = srcs[i]
	}
	return files, headers, callee, nil
}

// genConfHeader draws the configuration header: object-like and
// function-like macros, conditionals, typedefs and prototypes, none of
// which the corpus units reference.
func genConfHeader(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("#ifndef TIFFB_CONF_H\n#define TIFFB_CONF_H\n\n")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&sb, "#define TIFFB_C%d %d\n", i, rng.Intn(4096))
	}
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&sb, "#define TIFFB_M%d(a, b) ((a) * %d + (b) - TIFFB_C%d)\n", i, 1+rng.Intn(9), rng.Intn(70))
	}
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&sb, "#if TIFFB_C%d > 2048\n#define TIFFB_SEL%d TIFFB_M%d(TIFFB_C%d, 1)\n#else\n#define TIFFB_SEL%d %d\n#endif\n",
			i, i, i%24, rng.Intn(70), i, rng.Intn(100))
	}
	types := []string{"unsigned int", "int", "unsigned long", "long", "unsigned char", "char *", "short"}
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&sb, "typedef %s tiffb_t%d;\n", types[rng.Intn(len(types))], i)
	}
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&sb, "tiffb_t%d tiffb_proto%d(tiffb_t%d a, char *buf, int n);\n", rng.Intn(48), i, rng.Intn(48))
	}
	sb.WriteString("\n#endif\n")
	return sb.String()
}

// genIOHeader draws the I/O header: it includes the configuration header
// and declares the planted pairs with their sizes.
func genIOHeader(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("#ifndef TIFFB_IO_H\n#define TIFFB_IO_H\n\n#include \"tiffconf.h\"\n\n")
	for k := 0; k < crossPairs; k++ {
		tag := 8 + rng.Intn(24)
		fmt.Fprintf(&sb, "#define TIFFB_TAGBUF%d %d\n#define TIFFB_DIRCNT%d %d\n", k, tag, k, tag+1+rng.Intn(48))
		fmt.Fprintf(&sb, "void tiffb_memset%d(char *p, int v, int n);\nvoid tiffb_readdir%d(void);\n", k, k)
	}
	sb.WriteString("\n#endif\n")
	return sb.String()
}

// check applies the gates every run must pass: the paper's libtiff SLR
// and STR counts, exactly the planted cross-file edges, and one definite
// finding in each planted callee.
func (r *projectRun) check(rep *cfix.ProjectReport) error {
	var slrApplied, slrSites, strApplied, strVars int
	found := make(map[string]bool, crossPairs)
	for _, out := range rep.Files {
		if out.Err != "" {
			return fmt.Errorf("project: %s: %s", out.File, out.Err)
		}
		slrApplied += out.Fix.SLR.AppliedCount()
		slrSites += out.Fix.SLR.Candidates()
		for _, v := range out.Fix.STR.Vars {
			if v.IsPointer {
				strVars++
				if v.Applied {
					strApplied++
				}
			}
		}
		for _, f := range out.Fix.Findings {
			if r.callee[f.Function] == out.File && f.Severity == cfix.SevDefinite {
				found[f.Function] = true
			}
		}
	}
	edges := 0
	for _, e := range rep.Edges {
		if r.callee[e.Callee] == e.CalleeFile && e.Caller == "tiffb_readdir"+strings.TrimPrefix(e.Callee, "tiffb_memset") {
			edges++
		}
	}
	if slrApplied != wantSLRApplied || slrSites != wantSLRSites || strApplied != wantSTRApplied || strVars != wantSTRVars ||
		edges != crossPairs || len(rep.Edges) != crossPairs || len(found) != crossPairs {
		return fmt.Errorf("project: SLR %d/%d (want %d/%d), STR %d/%d (want %d/%d), edges %d of %d planted (%d total), cross-file findings %d",
			slrApplied, slrSites, wantSLRApplied, wantSLRSites, strApplied, strVars, wantSTRApplied, wantSTRVars,
			edges, crossPairs, len(rep.Edges), len(found))
	}
	return nil
}

func (r *projectRun) fix() (*cfix.ProjectReport, time.Duration, error) {
	start := time.Now()
	rep, err := cfix.FixProjectInMemory(context.Background(), r.files, r.headers, projectOptions)
	return rep, time.Since(start), err
}

func (r *projectRun) measure(tl *tally, warm, deadline time.Time) measurement {
	return closedLoop(tl, projectClients, warm, deadline, func(_, _ int) (time.Duration, error) {
		rep, d, err := r.fix()
		if err != nil {
			return d, err
		}
		return d, r.check(rep)
	})
}

func (r *projectRun) verify(*tally) {}

// trace runs the project one run at a time with a stage tracer attached.
// The fix round is the per-unit fix spans; the scan round is the rest of
// the run.
func (r *projectRun) trace(tl *tally, tr *tracer, deadline time.Time) error {
	tus := project.InMemory(r.files, r.headers, nil).TUs
	edges := 0
	for time.Now().Before(deadline) {
		rt := cfix.NewTracer()
		opts := projectOptions
		opts.Tracer = rt
		var rep *cfix.ProjectReport
		d, err := tr.entry(func() (err error) {
			rep, err = cfix.FixProjectInMemory(context.Background(), r.files, r.headers, opts)
			return err
		})
		if err == nil {
			err = r.check(rep)
		}
		if !tl.check(err) {
			continue
		}
		edges += len(rep.Edges)
		inputs := make(map[string]*frontCost, len(tus))
		for _, tu := range tus {
			if inputs[tu.File], err = tr.frontend(tu.File, tu.Source, &tu.CppOpts); err != nil {
				return err
			}
		}
		spans := rt.Spans()
		tr.charge(spans, inputs)
		var fix time.Duration
		for _, s := range spans {
			if s.Name == obs.StageFix {
				fix += s.Dur
			}
		}
		tr.extra["project.fix_ms_per_op"] += ms(fix)
		tr.extra["project.scan_ms_per_op"] += ms(d - fix)
		for _, f := range rep.Files {
			tr.count(f.Fix.SLR, f.Fix.STR)
		}
	}
	ops := float64(max(tr.ops, 1))
	tr.extra["project.edges"] = float64(edges) / ops
	tr.extra["project.scan_ms_per_op"] /= ops
	tr.extra["project.fix_ms_per_op"] /= ops
	return nil
}

func (r *projectRun) close() {}
