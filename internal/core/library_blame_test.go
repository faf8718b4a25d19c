package core

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/str"
)

// TestSTRNeverBlamesLibrary holds STR's Section III-C guard to its
// purpose — user-defined functions — over the SAMATE corpus and the four
// corpus projects under every backend: STR running on SLR's output must
// never name a catalog function, SLR's own safe calls included, as a
// user-defined function that may modify the buffer.
func TestSTRNeverBlamesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus check")
	}
	corpora := fixCorpora()
	names := make([]string, 0, len(corpora))
	for name := range corpora {
		if name == "samate" || strings.HasPrefix(name, "project-") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, be := range Backends() {
		blamed := 0
		for _, corp := range names {
			for _, in := range corpora[corp] {
				rep, err := Fix(context.Background(), in.Filename, in.Source, Options{SelectOffset: -1, Backend: be})
				if err != nil {
					t.Fatalf("%s %s: %v", be, in.Filename, err)
				}
				for _, v := range rep.STR.Vars {
					if _, isLib := backend.Library(v.Detail); v.Reason == str.FailUserFnMayModify && isLib {
						if blamed++; blamed <= 5 {
							t.Errorf("%s %s: %s in %s: %s (%s)", be, in.Filename, v.Name, v.Func, v.Reason, v.Detail)
						}
					}
				}
			}
		}
		if blamed > 0 {
			t.Errorf("%s: %d variables declined for a catalog function named as user-defined", be, blamed)
		}
	}
}
