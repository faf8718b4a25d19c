package overflow

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/ctoken"
)

// solves counts the buffer oracle's interval fixpoint solves (the
// integer oracle keeps its own count, intflow.Solves), the incremental
// layer's analogue of cparse.Parses: equivalence tests read it to prove
// that a memo-backed re-analysis did not re-derive facts for untouched
// functions.
var solves atomic.Int64

// Solves returns the number of per-function fixpoint solves this package
// has run since process start.
func Solves() int64 { return solves.Load() }

// Memo carries oracle results across runs of the same evolving
// translation unit — the incremental session's per-function fact store.
// Entries are keyed by dependency hashes (internal/analysis computes
// them: the function's comment-masked token text, the declarations it
// references, its alias environment, and its transitive callees), so a
// key can only match when every input that could change the function's
// findings is unchanged.
//
// Two levels mirror the engine's two passes:
//
//   - pass 1 (one entry per function, empty seed): the findings of
//     solve(fn, nil) plus the oracle's check;
//   - pass 2 (one entry per interprocedural context subtree): the
//     findings of propagate(fn, seed, chain, depth) — fn's own findings
//     under the seed plus everything the recursion below it produced.
//
// A pass-2 hit therefore skips an entire propagation subtree. Seeds are
// serialized by callee parameter position, not symbol ID, because IDs
// are dense per-parse and do not survive a re-parse.
//
// Extents in stored findings are kept in CURRENT source coordinates: the
// session calls Remap with each applied edit's offset mapper, so entries
// for untouched functions stay byte-accurate while entries for edited
// functions miss on hash and age out. Pos (line/column) is always
// recomputed at load time against the live file.
//
// Budgeted runs (Limits.Steps or Limits.Contexts non-zero) bypass the
// memo entirely: degradation bookkeeping depends on visit order and
// cannot be reproduced from retained results.
//
// A Memo is not safe for concurrent use; the session serializes edits.
type Memo struct {
	entries map[string]*memoEntry
	gen     int64 // bumped by BeginRun; entries untouched for two runs are pruned
	hits    int64
	misses  int64
}

type memoEntry struct {
	findings []Finding
	gen      int64
}

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string]*memoEntry)}
}

// BeginRun starts a new analysis run: hit/miss accounting restarts and
// entries not used for two consecutive runs are pruned, keeping the memo
// at working-set size.
func (m *Memo) BeginRun() {
	if m == nil {
		return
	}
	m.gen++
	m.hits, m.misses = 0, 0
	for k, e := range m.entries {
		if m.gen-e.gen > 2 {
			delete(m.entries, k)
		}
	}
}

// Hits returns the number of memo hits since BeginRun.
func (m *Memo) Hits() int64 {
	if m == nil {
		return 0
	}
	return m.hits
}

// Misses returns the number of memo misses since BeginRun.
func (m *Memo) Misses() int64 {
	if m == nil {
		return 0
	}
	return m.misses
}

// Len returns the number of retained entries.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	return len(m.entries)
}

// Load returns the retained findings for key. The returned slice is a
// fresh copy with Pos recomputed against file.
func (m *Memo) Load(key string, file *ctoken.File) ([]Finding, bool) {
	e, ok := m.entries[key]
	if !ok {
		m.misses++
		return nil, false
	}
	m.hits++
	e.gen = m.gen
	out := make([]Finding, len(e.findings))
	copy(out, e.findings)
	for i := range out {
		if file != nil {
			out[i].Pos = file.Position(out[i].Extent.Pos)
		}
		// Contexts is shared storage; callers of Analyze receive the
		// dedup'd copy, which unions Contexts in place.
		out[i].Contexts = append([]string(nil), out[i].Contexts...)
	}
	return out, true
}

// Store retains findings under key. The findings are copied.
func (m *Memo) Store(key string, findings []Finding) {
	cp := make([]Finding, len(findings))
	copy(cp, findings)
	for i := range cp {
		cp[i].Contexts = append([]string(nil), cp[i].Contexts...)
	}
	m.entries[key] = &memoEntry{findings: cp, gen: m.gen}
}

// Remap shifts every stored extent through an edit's offset mapping
// (old position -> new position, with an exactness bit as returned by
// edit.Mapper.MapExtent). The session calls this once per applied edit
// script, before the next analysis.
//
// Entries containing an extent the edit landed inside (inexact remap)
// are dropped rather than kept approximately: only rigidly-shifted
// extents are provably byte-identical to what a fresh parse of the new
// text yields. A comment inserted inside a finding's call expression
// leaves the function's dependency hash unchanged — comments are masked
// out — yet the fresh finding's extent grows to cover the comment,
// which no position arithmetic on the old extent can reproduce in
// general. Dropping costs one re-derivation of that function; keeping
// would cost equivalence.
func (m *Memo) Remap(mapExtent func(ctoken.Extent) (ctoken.Extent, bool)) {
	if m == nil {
		return
	}
	for k, e := range m.entries {
		exactAll := true
		for i := range e.findings {
			ne, exact := mapExtent(e.findings[i].Extent)
			if !exact {
				exactAll = false
				break
			}
			e.findings[i].Extent = ne
		}
		if !exactAll {
			delete(m.entries, k)
		}
	}
}

// pass1Key builds the memo key for a function's empty-seed analysis.
func pass1Key(oracle, optsSig, fnName, hash string) string {
	return oracle + "\x001\x00" + optsSig + "\x00" + fnName + "\x00" + hash
}

// pass2Key builds the memo key for an interprocedural context subtree.
func pass2Key(oracle, optsSig, hash string, chain []string, seed string, depth int) string {
	return oracle + "\x002\x00" + optsSig + "\x00" + hash + "\x00" +
		strings.Join(chain, "\x01") + "\x00" + seed + "\x00" + fmt.Sprint(depth)
}

// stableSeedKey serializes a per-parameter seed by parameter position so
// the key survives re-parses (symbol IDs do not). paramIndex maps the
// current parse's parameter symbol IDs to their positions; values must
// already be rendered deterministically by the caller.
func stableSeedKey(paramIndex map[int]int, values map[int]string) string {
	if len(values) == 0 {
		return ""
	}
	type kv struct {
		pos int
		val string
	}
	pairs := make([]kv, 0, len(values))
	for id, v := range values {
		pos, ok := paramIndex[id]
		if !ok {
			// A non-parameter symbol in a seed has no stable identity;
			// refuse to produce a reusable key.
			return "\x00unstable\x00" + fmt.Sprint(id)
		}
		pairs = append(pairs, kv{pos, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].pos < pairs[j].pos })
	var sb strings.Builder
	for _, p := range pairs {
		fmt.Fprintf(&sb, "%d=%s;", p.pos, p.val)
	}
	return sb.String()
}
