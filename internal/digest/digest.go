// Package digest holds a test's rendering of its corpora to a committed
// golden file of per-section digests: the one mechanism behind the
// repository's differential guards (fix output, oracle findings, AST
// dumps). A test keeps only its corpora and its renderer; Check does the
// hashing, the golden comparison and the failure report.
package digest

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Section is one named part of a rendering, such as one corpus under one
// option set.
type Section struct {
	Key  string
	Dump string
}

// Check compares each section's line count and SHA-256 with the line
// "key lines sum" for its key in the golden file, which must list exactly
// these keys. On a difference the full rendering of every differing
// section is saved to a temporary file and the current digests are
// printed; copy them over the golden only for a change that is meant to
// alter the rendering.
func Check(t testing.TB, golden string, sections []Section) {
	t.Helper()
	var cur, dump strings.Builder
	got := make([]string, len(sections))
	for i, s := range sections {
		got[i] = fmt.Sprintf("%d %x", strings.Count(s.Dump, "\n"), sha256.Sum256([]byte(s.Dump)))
		fmt.Fprintf(&cur, "%s %s\n", s.Key, got[i])
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("%v\ncurrent digests:\n%s", err, cur.String())
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, rest, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = rest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var bad []string
	for i, s := range sections {
		if want[s.Key] != got[i] {
			bad = append(bad, fmt.Sprintf("%s: got %s, want %s", s.Key, got[i], want[s.Key]))
			dump.WriteString(s.Dump)
		}
	}
	if len(want) != len(sections) {
		bad = append(bad, fmt.Sprintf("%d sections, golden has %d", len(sections), len(want)))
	}
	if len(bad) == 0 {
		return
	}
	saved := "(rendering not saved: %v)"
	out, err := os.CreateTemp("", strings.TrimSuffix(filepath.Base(golden), ".digest")+"-*.txt")
	if err == nil {
		_, err = out.WriteString(dump.String())
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		saved = "rendering of the differing sections: " + out.Name()
	} else {
		saved = fmt.Sprintf(saved, err)
	}
	t.Fatalf("rendering differs from %s:\n%s\n%s\ncurrent digests:\n%s",
		golden, strings.Join(bad, "\n"), saved, cur.String())
}
