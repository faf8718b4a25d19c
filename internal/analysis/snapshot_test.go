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
