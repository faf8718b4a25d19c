package analysis

import (
	"sync"
	"testing"
)

const snapSample = `
int strcpy_wrap(char *d, char *s) {
    strcpy(d, s);
    return 0;
}
void user(void) {
    char buf[8];
    char *p;
    strcpy_wrap(buf, "this string is longer than eight");
    p = malloc(4);
    p[0] = 'x';
    sprintf(buf, "%s", "overflowing again here");
}
`

func mustSnap(t *testing.T) *Snapshot {
	t.Helper()
	s, err := Parse("snap.c", snapSample)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotMemoizesFacts(t *testing.T) {
	s := mustSnap(t)
	if s.PointsTo() != s.PointsTo() {
		t.Fatal("PointsTo not memoized")
	}
	if s.Aliases() != s.Aliases() {
		t.Fatal("Aliases not memoized")
	}
	if s.CallGraph() != s.CallGraph() {
		t.Fatal("CallGraph not memoized")
	}
	if s.MayModify() != s.MayModify() {
		t.Fatal("MayModify not memoized")
	}
	if s.BufLenAnalyzer() != s.BufLenAnalyzer() {
		t.Fatal("BufLenAnalyzer not memoized")
	}
	for _, fn := range s.Unit().Funcs {
		if s.CFG(fn) != s.CFG(fn) {
			t.Fatalf("CFG(%s) not memoized", fn.Name)
		}
		if s.Reaching(fn) != s.Reaching(fn) {
			t.Fatalf("Reaching(%s) not memoized", fn.Name)
		}
	}
	f1, f2 := s.Findings(), s.Findings()
	if len(f1) == 0 {
		t.Fatal("oracle should flag the sample")
	}
	if &f1[0] != &f2[0] {
		t.Fatal("Findings not memoized")
	}
}

func TestSnapshotConcurrentAccess(t *testing.T) {
	// Hammer every accessor from many goroutines; -race is the judge.
	s := mustSnap(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Typecheck()
			s.PointsTo()
			s.Aliases()
			s.CallGraph()
			s.MayModify()
			s.BufLenAnalyzer()
			s.Findings()
			for _, fn := range s.Unit().Funcs {
				s.CFG(fn)
				s.Reaching(fn)
			}
		}()
	}
	wg.Wait()
}

func TestSnapshotTypecheckOnce(t *testing.T) {
	s := mustSnap(t)
	errs1 := s.Typecheck()
	// Trigger the whole fact lattice, then confirm the diagnostics slice
	// is stable (typecheck ran exactly once).
	s.Findings()
	s.MayModify()
	errs2 := s.Typecheck()
	if len(errs1) != len(errs2) {
		t.Fatalf("typecheck diagnostics changed: %d vs %d", len(errs1), len(errs2))
	}
}

// aliasQuerySample stores through pointers in three functions, so their
// reaching definitions ask the alias sets for pointees while the
// dependency hashes fingerprint the same symbols.
const aliasQuerySample = `
char *g;
void one(void) { char a[4]; char *p = a; char *q = p; *p = 'x'; *q = 'y'; g = q; }
void two(void) { char b[4]; char *r = b; char *s = r; *r = 'x'; *s = 'y'; g = s; }
void three(void) { char c[4]; char *t = c; char *u = g; *t = 'x'; *u = 'y'; u = t; }
`

// TestAliasQueriesConcurrent: the alias sets answer queries from
// several goroutines at once, as reaching definitions (each under the
// snapshot's reaching lock) and the dependency hashes (under their own
// once) reach them; -race is the judge.
func TestAliasQueriesConcurrent(t *testing.T) {
	s, err := Parse("alias.c", aliasQuerySample)
	if err != nil {
		t.Fatal(err)
	}
	s.Aliases()
	var wg sync.WaitGroup
	for _, fn := range s.Unit().Funcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Reaching(fn)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.FuncHashes()
	}()
	wg.Wait()
}
