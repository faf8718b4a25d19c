package incremental

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctoken"
	"repro/internal/edit"
	"repro/internal/samate"
)

// corpus flattens the synthetic SAMATE-style generators into one
// program list covering every buffer CWE and both integer CWEs.
func corpus(perCWE int) []samate.Program {
	var progs []samate.Program
	for _, cwe := range samate.CWEs {
		progs = append(progs, samate.Generate(cwe, perCWE)...)
	}
	for _, cwe := range samate.IntCWEs {
		progs = append(progs, samate.IntGenerate(cwe, perCWE)...)
	}
	return progs
}

// randomDelta draws one parse-biased random edit against src. Edits are
// allowed to break the parse (the session must reject those cleanly) or
// to change semantics (the equivalence check is against a fresh run of
// whatever text results).
func randomDelta(rng *rand.Rand, src string) []edit.Delta {
	pick := func(sub string) int {
		idxs := []int{}
		for i := strings.Index(src, sub); i >= 0 && len(idxs) < 64; {
			idxs = append(idxs, i)
			j := strings.Index(src[i+1:], sub)
			if j < 0 {
				break
			}
			i += 1 + j
		}
		if len(idxs) == 0 {
			return -1
		}
		return idxs[rng.Intn(len(idxs))]
	}
	switch rng.Intn(6) {
	case 0: // comment on a fresh line
		if at := pick("\n"); at >= 0 {
			return []edit.Delta{edit.Insert(ctoken.Pos(at+1), "/* edited */\n")}
		}
	case 1: // stray whitespace
		if at := pick("\n"); at >= 0 {
			return []edit.Delta{edit.Insert(ctoken.Pos(at), "   ")}
		}
	case 2: // mutate a digit (sizes, offsets, literals)
		digits := []int{}
		for i := 0; i < len(src) && len(digits) < 128; i++ {
			if src[i] >= '0' && src[i] <= '9' {
				digits = append(digits, i)
			}
		}
		if len(digits) > 0 {
			at := digits[rng.Intn(len(digits))]
			d := byte('1' + rng.Intn(9))
			return []edit.Delta{edit.Replace(ctoken.Extent{Pos: ctoken.Pos(at), End: ctoken.Pos(at + 1)}, string(d))}
		}
	case 3: // whole-file resend with one mutated byte (full-sync client)
		out := []byte(src)
		if len(out) > 0 {
			at := rng.Intn(len(out))
			out[at] = byte('a' + rng.Intn(26))
		}
		return []edit.Delta{edit.Replace(ctoken.Extent{Pos: 0, End: ctoken.Pos(len(src))}, string(out))}
	case 4: // comment at an arbitrary byte (may land mid-token or mid-string)
		at := rng.Intn(len(src) + 1)
		return []edit.Delta{edit.Insert(ctoken.Pos(at), "/*x*/")}
	case 5: // delete a semicolon-to-newline tail span (often breaks the parse)
		if at := pick(";\n"); at >= 0 {
			return []edit.Delta{{Extent: ctoken.Extent{Pos: ctoken.Pos(at + 1), End: ctoken.Pos(at + 2)}}}
		}
	}
	return []edit.Delta{edit.Insert(0, "/*fallback*/")}
}

// TestRandomizedEditEquivalence is the acceptance-criteria suite: over
// the SAMATE corpus, every session survives a randomized edit script
// with diagnostics and repair sites byte-identical to a from-scratch
// analysis of the same text, and fixes applied through session sites
// identical to fixes applied through fresh discovery.
func TestRandomizedEditEquivalence(t *testing.T) {
	perCWE := 27 // 6 buffer CWEs + 2 int CWEs -> 216 programs
	editsPer := 3
	if testing.Short() {
		perCWE = 5
	}
	progs := corpus(perCWE)
	if len(progs) < 200 && !testing.Short() {
		t.Fatalf("corpus too small: %d programs", len(progs))
	}
	rng := rand.New(rand.NewSource(20260808))
	ctx := context.Background()

	broken, applied := 0, 0
	for _, p := range progs {
		s, _, err := Open(ctx, p.ID+".c", p.Source, Config{})
		if err != nil {
			t.Fatalf("%s: Open: %v", p.ID, err)
		}
		text := p.Source
		for e := 0; e < editsPer; e++ {
			deltas := randomDelta(rng, text)
			want, aerr := edit.NewScript(edit.Minimize(text, deltas)...).Apply(text)
			if aerr != nil {
				continue
			}
			res, err := s.Edit(ctx, deltas)
			if err != nil {
				// Rejected edit (parse break): the session must be intact.
				broken++
				if s.Text() != text {
					t.Fatalf("%s: failed edit mutated session text", p.ID)
				}
				continue
			}
			applied++
			if res.Text != want {
				t.Fatalf("%s: applied text diverges from reference splice", p.ID)
			}
			text = want

			wantF, err := core.Analyze(ctx, p.ID+".c", text, core.Options{Checks: "all"})
			if err != nil {
				t.Fatalf("%s: fresh analyze: %v", p.ID, err)
			}
			if !reflect.DeepEqual(res.Findings, wantF) {
				t.Fatalf("%s edit %d: findings diverge from fresh analysis\nsession: %+v\nfresh:   %+v",
					p.ID, e, res.Findings, wantF)
			}
			_, freshRes, err := Open(ctx, p.ID+".c", text, Config{})
			if err != nil {
				t.Fatalf("%s: fresh open: %v", p.ID, err)
			}
			if !reflect.DeepEqual(res.Sites, freshRes.Sites) {
				t.Fatalf("%s edit %d: sites diverge from fresh discovery\nsession: %+v\nfresh:   %+v",
					p.ID, e, res.Sites, freshRes.Sites)
			}
		}

		// Fixing through a session-reported SLR site must equal fixing
		// through fresh discovery at the same site.
		for _, site := range s.Sites() {
			if site.Kind != SiteSLR || !site.Eligible {
				continue
			}
			viaSession, err := core.Fix(ctx, p.ID+".c", s.Text(), core.Options{SelectOffset: int(site.Extent.Pos)})
			if err != nil {
				t.Fatalf("%s: fix via session site: %v", p.ID, err)
			}
			viaFresh, err := core.Fix(ctx, p.ID+".c", s.Text(), core.Options{SelectOffset: int(site.Extent.Pos)})
			if err != nil {
				t.Fatalf("%s: fix via fresh site: %v", p.ID, err)
			}
			if viaSession.Source != viaFresh.Source {
				t.Fatalf("%s: fix output diverges at site %v", p.ID, site.Extent)
			}
			if !viaSession.Changed() {
				t.Fatalf("%s: eligible session site did not change the program", p.ID)
			}
			break
		}
	}
	t.Logf("programs=%d applied_edits=%d rejected_edits=%d", len(progs), applied, broken)
	if applied == 0 {
		t.Fatal("no edits applied; the suite tested nothing")
	}
}

// FuzzSessionEdits drives a session with fuzzer-chosen edit scripts on a
// small overflowing program and cross-checks findings against a fresh
// analysis after every accepted edit — the same oracle FuzzFix uses,
// pointed at the incremental path.
func FuzzSessionEdits(f *testing.F) {
	const src = `
void f(void) {
    char buf[8];
    strcpy(buf, "0123456789");
}

void g(int n) {
    char out[16];
    memset(out, 0, n + 32);
}
`
	f.Add(uint16(3), "/*c*/", uint16(9), uint16(1))
	f.Add(uint16(0), " ", uint16(40), uint16(0))
	f.Add(uint16(12), "x", uint16(60), uint16(2))
	f.Fuzz(func(t *testing.T, pos uint16, text string, pos2, del uint16) {
		ctx := context.Background()
		s, _, err := Open(ctx, "f.c", src, Config{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		scripts := [][]edit.Delta{
			{edit.Insert(ctoken.Pos(int(pos)%(len(src)+1)), text)},
			{edit.Delta{Extent: ctoken.Extent{
				Pos: ctoken.Pos(int(pos2) % (len(src) + 1)),
				End: ctoken.Pos(minInt(int(pos2)%(len(src)+1)+int(del)%8, len(src))),
			}}},
		}
		for _, deltas := range scripts {
			before := s.Text()
			res, err := s.Edit(ctx, deltas)
			if err != nil {
				if s.Text() != before {
					t.Fatal("failed edit mutated session text")
				}
				continue
			}
			wantF, err := core.Analyze(ctx, "f.c", res.Text, core.Options{Checks: "all"})
			if err != nil {
				t.Fatalf("fresh analyze: %v", err)
			}
			if !reflect.DeepEqual(res.Findings, wantF) {
				t.Fatalf("findings diverge after %v\nsession: %+v\nfresh:   %+v", deltas, res.Findings, wantF)
			}
		}
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
