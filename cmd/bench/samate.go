package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cparse"
	"repro/internal/harness"
	"repro/internal/samate"
	"repro/pkg/cfix"
)

// samate-batch is `cfix -lint -checks=all` over the paper's Table III
// corpus: two workers fix every SAMATE program and every int-corpus
// program in seeded-shuffled passes. The translation units are tiny, so
// the per-file fixed cost of parse, snapshot, points-to, both oracles,
// SLR and STR dominates; cpp, the cache, HTTP and the session memos are
// never reached.

const (
	samateWorkers = 2
	// samatePasses bounds the precomputed shuffles; a run that outlasts
	// them starts over at the first pass.
	samatePasses = 64
	// verifyEvery is the stride of the checked-interpreter sample taken
	// after the timed phase.
	verifyEvery = 50
)

// samateOptions is the request every op makes.
var samateOptions = cfix.Options{SelectAll: true, Lint: true, Checks: "all"}

type samateRun struct {
	seed  int64
	progs []samate.Program
	// nSamate counts the SAMATE programs at the head of progs; the int
	// corpus follows them.
	nSamate int
	// order is the seeded op sequence: samatePasses shuffles of progs.
	order []int
	// parsed marks the programs whose fixed output was re-parsed, which
	// the first op on each program does; the first pass ends inside the
	// warm-up, so the re-parses stay out of the timed phase.
	parsed []atomic.Bool
}

// samatePrograms generates the 4,505 SAMATE programs in Table III order.
func samatePrograms() []samate.Program {
	var progs []samate.Program
	for _, cwe := range samate.CWEs {
		progs = append(progs, samate.Generate(cwe, samate.TableIIICounts[cwe])...)
	}
	return progs
}

func setupSamate(seed int64) (instance, error) {
	progs := samatePrograms()
	nSamate := len(progs)
	for _, cwe := range samate.IntCWEs {
		progs = append(progs, samate.IntGenerate(cwe, samate.IntTableCounts[cwe])...)
	}
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, 0, samatePasses*len(progs))
	for p := 0; p < samatePasses; p++ {
		order = append(order, rng.Perm(len(progs))...)
	}
	return &samateRun{seed: seed, progs: progs, nSamate: nSamate, order: order, parsed: make([]atomic.Bool, len(progs))}, nil
}

// program returns the program op i fixes.
func (r *samateRun) program(i int) (int, samate.Program) {
	idx := r.order[i%len(r.order)]
	return idx, r.progs[idx]
}

// checkFix applies the per-op gate: the oracle flags the program's bad()
// function, which every generated program has by construction.
func checkFix(p samate.Program, rep *cfix.Report) error {
	bad := p.ID + "_bad"
	for _, f := range rep.Findings {
		if f.Function == bad {
			return nil
		}
		for _, c := range f.Contexts {
			if strings.Contains(c, bad) {
				return nil
			}
		}
	}
	return fmt.Errorf("samate-batch: %s: %s() not flagged", p.ID, bad)
}

func (r *samateRun) measure(tl *tally, warm, deadline time.Time) measurement {
	ctx := context.Background()
	return closedLoop(tl, samateWorkers, warm, deadline, func(_, i int) (time.Duration, error) {
		idx, p := r.program(i)
		start := time.Now()
		rep, err := cfix.FixContext(ctx, p.ID+".c", p.Source, samateOptions)
		d := time.Since(start)
		if err != nil {
			return d, fmt.Errorf("samate-batch: %s: %w", p.ID, err)
		}
		if r.parsed[idx].CompareAndSwap(false, true) {
			if _, err := cparse.Parse(p.ID+".fixed.c", withSupport(rep)); err != nil {
				return d, fmt.Errorf("samate-batch: fixed %s does not parse: %w", p.ID, err)
			}
		}
		return d, checkFix(p, rep)
	})
}

// withSupport prepends the support code a fixed unit needs to compile.
func withSupport(rep *cfix.Report) string {
	if !rep.NeedsStralloc && !rep.NeedsGlib {
		return rep.Source
	}
	return cfix.SupportSource() + "\n" + rep.Source
}

// verify runs a seeded 1-in-50 sample of the SAMATE programs through
// the checked interpreter: the bad function's overflow is gone after the
// fix and the good function prints what it printed before.
func (r *samateRun) verify(tl *tally) {
	rng := rand.New(rand.NewSource(r.seed))
	for i, p := range r.progs[:r.nSamate] { // the int corpus has no dynamic oracle
		if rng.Intn(verifyEvery) != 0 || !r.parsed[i].Load() {
			continue
		}
		v, err := harness.Verify(p.ID, p.Source, p.ID+"_good", p.ID+"_bad", harness.Options{Stdin: stdinFor(p)})
		if err == nil && !(v.VulnDetected && v.Fixed && v.Preserved) {
			err = fmt.Errorf("detected=%v fixed=%v preserved=%v", v.VulnDetected, v.Fixed, v.Preserved)
		}
		tl.check(wrapErr("samate-batch: verify "+p.ID, err))
	}
}

// stdinFor feeds gets() programs lines longer than any generated buffer.
func stdinFor(p samate.Program) []string {
	if p.CWE != 242 {
		return nil
	}
	long := strings.Repeat("Q", 120)
	return []string{long, long}
}

func wrapErr(msg string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", msg, err)
}

func (r *samateRun) trace(tl *tally, tr *tracer, deadline time.Time) error {
	for i := 0; time.Now().Before(deadline); i++ {
		_, p := r.program(i)
		if err := tr.fixFile(tl, p.ID+".c", p.Source, samateOptions, func(rep *cfix.Report) error { return checkFix(p, rep) }); err != nil {
			return err
		}
	}
	return nil
}

// fixFile is one traced cfix.FixContext call on one file; check, when
// non-nil, is the op's correctness gate.
func (t *tracer) fixFile(tl *tally, name, src string, opts cfix.Options, check func(*cfix.Report) error) error {
	rt := cfix.NewTracer()
	opts.Tracer = rt
	var rep *cfix.Report
	_, err := t.entry(func() (err error) {
		rep, err = cfix.FixContext(context.Background(), name, src, opts)
		return err
	})
	if err == nil && check != nil {
		err = check(rep)
	}
	if !tl.check(err) {
		return nil
	}
	in, err := t.frontend(name, src, nil)
	if err != nil {
		return err
	}
	t.charge(rt.Spans(), map[string]*frontCost{name: in})
	t.count(rep.SLR, rep.STR)
	return nil
}

func (r *samateRun) close() {}
