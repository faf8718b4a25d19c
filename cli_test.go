package repro_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// buildTool compiles one command into a temp dir and returns its path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func TestCfixCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")

	src := `
void work(void) {
    char buf[8];
    strcpy(buf, "a string that is clearly too long");
    printf("%s\n", buf);
}
int main(void) {
    work();
    return 0;
}
`
	dir := t.TempDir()
	in := filepath.Join(dir, "vuln.c")
	if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "fixed.c")

	cmd := exec.Command(bin, "-verify", "main", "-support", "-o", out, in)
	combined, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cfix: %v\n%s", err, combined)
	}
	text := string(combined)
	if !strings.Contains(text, "before: ") || !strings.Contains(text, "after:  0 violation(s)") {
		t.Fatalf("verify output unexpected:\n%s", text)
	}
	fixed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "g_strlcpy") {
		t.Fatalf("fixed source missing rewrite:\n%s", fixed)
	}

	// Usage error path.
	if err := exec.Command(bin).Run(); err == nil {
		t.Fatal("no-args invocation must fail")
	}

	// Diff mode.
	diffOut, err := exec.Command(bin, "-summary=false", "-diff", in).Output()
	if err != nil {
		t.Fatalf("cfix -diff: %v", err)
	}
	if !strings.Contains(string(diffOut), "-    strcpy(buf") ||
		!strings.Contains(string(diffOut), "+    g_strlcpy(buf") {
		t.Fatalf("diff output unexpected:\n%s", diffOut)
	}
}

func TestSamategenCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/samategen")
	dir := t.TempDir()
	cmd := exec.Command(bin, "-out", dir, "-cwe", "242", "-n", "5")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("samategen: %v\n%s", err, out)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "CWE242"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("files: %d, want 5", len(entries))
	}
	data, err := os.ReadFile(filepath.Join(dir, "CWE242", entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "gets(") {
		t.Fatalf("CWE-242 program missing gets:\n%s", data)
	}
}

func TestExperimentsCLISampled(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/experiments")
	cmd := exec.Command(bin, "-table", "6")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("experiments: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "296") || !strings.Contains(string(out), "237") {
		t.Fatalf("Table VI output unexpected:\n%s", out)
	}
}

func TestCfixCLIBatchDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	src := t.TempDir()
	for i, body := range []string{
		"void a(void){ char b[4]; strcpy(b, \"toolongxxxx\"); }\n",
		"void c(void){ char d[4]; strcat(d, \"alsolong\"); }\n",
	} {
		name := filepath.Join(src, []string{"one.c", "two.c"}[i])
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	outdir := t.TempDir()
	out, err := exec.Command(bin, "-summary=false", "-outdir", outdir, src).CombinedOutput()
	if err != nil {
		t.Fatalf("batch: %v\n%s", err, out)
	}
	for _, name := range []string{"one.c", "two.c"} {
		data, err := os.ReadFile(filepath.Join(outdir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "g_strl") {
			t.Fatalf("%s not transformed:\n%s", name, data)
		}
	}
}

// TestCfixCLIParallelJobs checks the -j worker flag: parallel batch runs
// must produce exactly the files and bytes of a sequential run, and the
// stderr summaries must come out in input order.
func TestCfixCLIParallelJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	src := t.TempDir()
	var names []string
	for i := 0; i < 6; i++ {
		name := string(rune('a'+i)) + ".c"
		names = append(names, name)
		body := "void f" + string(rune('a'+i)) + "(void){ char b[4]; strcpy(b, \"much too long for four\"); }\n"
		if err := os.WriteFile(filepath.Join(src, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	run := func(jobs string) (map[string]string, string) {
		outdir := t.TempDir()
		cmd := exec.Command(bin, "-j", jobs, "-outdir", outdir, src)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-j %s: %v\n%s", jobs, err, stderr.String())
		}
		got := map[string]string{}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(outdir, name))
			if err != nil {
				t.Fatalf("-j %s: %v", jobs, err)
			}
			got[name] = string(data)
		}
		return got, stderr.String()
	}

	seq, seqLog := run("1")
	par, parLog := run("4")
	for _, name := range names {
		if seq[name] != par[name] {
			t.Fatalf("%s: -j 4 output differs from -j 1", name)
		}
		if !strings.Contains(seq[name], "g_strl") {
			t.Fatalf("%s not transformed:\n%s", name, seq[name])
		}
	}
	if seqLog != parLog {
		t.Fatalf("summaries diverge:\n-j 1:\n%s\n-j 4:\n%s", seqLog, parLog)
	}
	// Summaries must appear in input order even with parallel workers.
	last := -1
	for _, name := range names {
		idx := strings.Index(parLog, "== "+filepath.Join(src, name)+" ==")
		if idx < 0 {
			t.Fatalf("summary for %s missing:\n%s", name, parLog)
		}
		if idx < last {
			t.Fatalf("summaries out of input order:\n%s", parLog)
		}
		last = idx
	}
}

func TestCfixCLILintExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()

	vuln := filepath.Join(dir, "vuln.c")
	if err := os.WriteFile(vuln, []byte(`
void work(void) {
    char buf[8];
    char src[40];
    memset(src, 'A', 30);
    src[30] = '\0';
    strcpy(buf, src);
}
int main(void) { work(); return 0; }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(dir, "clean.c")
	if err := os.WriteFile(clean, []byte(`
void work(void) {
    char buf[8];
    strcpy(buf, "ok");
}
int main(void) { work(); return 0; }
`), 0o644); err != nil {
		t.Fatal(err)
	}

	// A definite overflow is the CI-gate signal: exit code 3.
	out, err := exec.Command(bin, "-lint", vuln).Output()
	if code := exitCode(err); code != 3 {
		t.Fatalf("lint vuln: exit %d, want 3 (%v)", code, err)
	}
	if !strings.Contains(string(out), "CWE-121") || !strings.Contains(string(out), "definite") {
		t.Fatalf("lint output missing verdict:\n%s", out)
	}

	// JSON mode keeps the exit contract and emits one object per line.
	out, err = exec.Command(bin, "-lint", "-json", vuln).Output()
	if code := exitCode(err); code != 3 {
		t.Fatalf("lint -json vuln: exit %d, want 3 (%v)", code, err)
	}
	if !strings.Contains(string(out), `"cwe":121`) || !strings.Contains(string(out), `"severity":"definite"`) {
		t.Fatalf("json output unexpected:\n%s", out)
	}

	// A clean file exits 0.
	if err := exec.Command(bin, "-lint", clean).Run(); err != nil {
		t.Fatalf("lint clean: %v, want exit 0", err)
	}

	// -json without -lint is a usage error.
	if code := exitCode(exec.Command(bin, "-json", clean).Run()); code != 2 {
		t.Fatalf("-json without -lint: exit %d, want 2", code)
	}

	// The help text documents the exit-code contract.
	helpOut, _ := exec.Command(bin).CombinedOutput()
	if !strings.Contains(string(helpOut), "exit codes:") {
		t.Fatalf("usage output missing exit-code contract:\n%s", helpOut)
	}
}

func TestCfixCLIKeepGoingAndBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()

	good1 := filepath.Join(dir, "a.c")
	good2 := filepath.Join(dir, "c.c")
	broken := filepath.Join(dir, "b.c")
	goodSrc := `
void work(void) {
    char buf[8];
    strcpy(buf, "a string that is clearly too long");
}
`
	for _, f := range []string{good1, good2} {
		if err := os.WriteFile(f, []byte(goodSrc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(broken, []byte("void oops( {"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Without -keep-going the batch stops at the first failure: nothing
	// lands in the output directory for the files after it.
	outdir := filepath.Join(dir, "out-fail-fast")
	err := exec.Command(bin, "-summary=false", "-outdir", outdir, good1, broken, good2).Run()
	if code := exitCode(err); code != 1 {
		t.Fatalf("fail-fast batch: exit %d, want 1", code)
	}
	if _, err := os.Stat(filepath.Join(outdir, "c.c")); err == nil {
		t.Fatal("fail-fast batch wrote output past the failing file")
	}

	// With -keep-going every healthy file is transformed and written,
	// the broken one is reported, and the run still exits 1.
	outdir = filepath.Join(dir, "out-keep-going")
	cmd := exec.Command(bin, "-summary=false", "-keep-going", "-outdir", outdir, good1, broken, good2)
	combined, err := cmd.CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("keep-going batch: exit %d, want 1\n%s", code, combined)
	}
	if !strings.Contains(string(combined), "b.c") {
		t.Fatalf("keep-going batch did not report the broken file:\n%s", combined)
	}
	for _, name := range []string{"a.c", "c.c"} {
		fixed, err := os.ReadFile(filepath.Join(outdir, name))
		if err != nil {
			t.Fatalf("keep-going batch lost a healthy file: %v", err)
		}
		if !strings.Contains(string(fixed), "g_strlcpy") {
			t.Fatalf("%s missing rewrite:\n%s", name, fixed)
		}
	}
	// Atomic writes must not leave temp files behind.
	entries, err := os.ReadDir(outdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stale temporary file in outdir: %s", e.Name())
		}
	}

	// Lint keep-going: the definite-overflow gate (3) dominates the
	// per-file error (1) so CI reads the security signal first.
	vuln := filepath.Join(dir, "vuln.c")
	if err := os.WriteFile(vuln, []byte(`
void work(void) {
    char buf[8];
    char src[40];
    memset(src, 'A', 30);
    src[30] = '\0';
    strcpy(buf, src);
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = exec.Command(bin, "-lint", "-keep-going", broken, vuln).Run()
	if code := exitCode(err); code != 3 {
		t.Fatalf("lint keep-going with definite: exit %d, want 3", code)
	}
	// Errors alone (no definite finding) exit 1.
	clean := filepath.Join(dir, "clean.c")
	if err := os.WriteFile(clean, []byte(`
void work(void) {
    char buf[8];
    strcpy(buf, "ok");
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = exec.Command(bin, "-lint", "-keep-going", broken, clean).Run()
	if code := exitCode(err); code != 1 {
		t.Fatalf("lint keep-going errors only: exit %d, want 1", code)
	}

	// An exhausted -budget degrades loudly: the oracle reports the
	// affected functions as unverified instead of passing them silently.
	out, err := exec.Command(bin, "-lint", "-budget", "1", vuln).Output()
	if code := exitCode(err); code != 0 && code != 3 {
		t.Fatalf("lint -budget: exit %d, want 0 or 3", code)
	}
	if !strings.Contains(string(out), "degraded") {
		t.Fatalf("budget-exhausted lint not marked degraded:\n%s", out)
	}

	// The timeout flags parse and a comfortable deadline changes nothing.
	if err := exec.Command(bin, "-summary=false", "-timeout", "30s", "-total-timeout", "1m",
		"-o", filepath.Join(dir, "t.c"), good1).Run(); err != nil {
		t.Fatalf("timeout flags: %v", err)
	}
}

// exitCode extracts the process exit status (0 when err is nil).
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestCfixCLIJobsValidation: negative -j is a usage error, and the help
// text documents the 0 = one-per-CPU convention.
func TestCfixCLIJobsValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()
	in := filepath.Join(dir, "x.c")
	if err := os.WriteFile(in, []byte("int x;\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-j", "-1", in)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := exitCode(err); code != 2 {
		t.Fatalf("-j -1: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-j must be >= 0") {
		t.Fatalf("-j -1 stderr missing explanation:\n%s", stderr.String())
	}

	helpOut, _ := exec.Command(bin).CombinedOutput()
	if !strings.Contains(string(helpOut), "one worker per CPU") {
		t.Fatalf("help text missing -j=0 semantics:\n%s", helpOut)
	}
}

// TestCfixCLIBackendFlag: -backend selects the repair dialect end to
// end, and an unknown name is a usage error (exit 2) naming the valid
// set — caught at flag validation, before any file is read.
func TestCfixCLIBackendFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()
	in := filepath.Join(dir, "vuln.c")
	if err := os.WriteFile(in, []byte(`
void work(void) {
    char buf[8];
    strcpy(buf, "a string that is clearly too long");
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct{ backend, want string }{
		{"glib", "g_strlcpy(buf"},
		{"bsd", "strlcpy(buf"},
		{"c11k", "strcpy_s(buf"},
	}
	for _, c := range cases {
		out := filepath.Join(dir, c.backend+".c")
		if err := exec.Command(bin, "-summary=false", "-str=false", "-backend", c.backend,
			"-support", "-o", out, in).Run(); err != nil {
			t.Fatalf("-backend %s: %v", c.backend, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), c.want) {
			t.Fatalf("-backend %s output missing %q:\n%s", c.backend, c.want, data)
		}
	}

	// The default is glib: no flag and -backend glib agree byte for byte.
	defOut := filepath.Join(dir, "default.c")
	if err := exec.Command(bin, "-summary=false", "-str=false", "-support", "-o", defOut, in).Run(); err != nil {
		t.Fatal(err)
	}
	defData, _ := os.ReadFile(defOut)
	glibData, _ := os.ReadFile(filepath.Join(dir, "glib.c"))
	if string(defData) != string(glibData) {
		t.Fatal("default output differs from -backend glib")
	}

	// Unknown backend: usage error before any processing.
	cmd := exec.Command(bin, "-backend", "musl", in)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if code := exitCode(cmd.Run()); code != 2 {
		t.Fatalf("-backend musl: exit %d, want 2", code)
	}
	for _, want := range []string{"musl", "glib", "bsd", "c11k"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("-backend musl stderr missing %q:\n%s", want, stderr.String())
		}
	}
}

// TestCfixCLIChecksFlag: an invalid -checks selection is a usage error
// (exit 2) naming the problem, caught at flag validation by the same
// validator the library and cfixd use, before any file is read.
func TestCfixCLIChecksFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	in := filepath.Join(t.TempDir(), "x.c")
	if err := os.WriteFile(in, []byte("int x;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ checks, want string }{
		{",", "no checks selected"},
		{"bogus", "buf, int, all"},
	} {
		cmd := exec.Command(bin, "-lint", "-checks", c.checks, in)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if code := exitCode(cmd.Run()); code != 2 {
			t.Fatalf("-checks %q: exit %d, want 2\n%s", c.checks, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Fatalf("-checks %q stderr missing %q:\n%s", c.checks, c.want, stderr.String())
		}
	}
}

// TestCfixlspCLIFlagValidation: cfixlsp validates -checks and -backend
// at startup (exit 2) instead of serving every file as clean.
func TestCfixlspCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfixlsp")
	for _, c := range []struct{ flag, value, want string }{
		{"-checks", "bogus", "buf, int, all"},
		{"-checks", ",", "no checks selected"},
		{"-backend", "musl", "glib, bsd, c11k"},
	} {
		cmd := exec.Command(bin, c.flag, c.value)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if code := exitCode(cmd.Run()); code != 2 {
			t.Fatalf("%s %s: exit %d, want 2", c.flag, c.value, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Fatalf("%s %s stderr missing %q:\n%s", c.flag, c.value, c.want, stderr.String())
		}
	}
}

// TestCfixdCLIBackendFlag: cfixd validates -backend at startup (exit 2
// on unknown names, before binding a port).
func TestCfixdCLIBackendFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfixd")
	cmd := exec.Command(bin, "-backend", "musl")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if code := exitCode(cmd.Run()); code != 2 {
		t.Fatalf("-backend musl: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "glib, bsd, c11k") {
		t.Fatalf("stderr missing valid set:\n%s", stderr.String())
	}
}

// TestCfixCLICacheDir: a second run over unchanged inputs with
// -cache-dir produces byte-identical output from the persisted cache.
func TestCfixCLICacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()
	in := filepath.Join(dir, "vuln.c")
	if err := os.WriteFile(in, []byte(`
void work(void) {
    char buf[8];
    strcpy(buf, "a string that is clearly too long");
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")

	run := func(out string) string {
		if err := exec.Command(bin, "-summary=false", "-cache-dir", cacheDir, "-o", out, in).Run(); err != nil {
			t.Fatalf("cfix -cache-dir: %v", err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	cold := run(filepath.Join(dir, "cold.c"))
	warm := run(filepath.Join(dir, "warm.c"))
	if cold != warm {
		t.Fatal("cached run output differs from cold run")
	}
	if !strings.Contains(cold, "g_strlcpy") {
		t.Fatalf("transformation missing:\n%s", cold)
	}
	// The persisted entries actually landed on disk.
	found := false
	filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".cfe") {
			found = true
		}
		return nil
	})
	if !found {
		t.Fatal("no cache entries persisted under -cache-dir")
	}
}

// TestCfixCLILintJSONDegradations: -lint -json surfaces per-file
// degradations as a machine-readable trailer line, so consumers can
// tell a full-fidelity clean verdict from a qualified one.
func TestCfixCLILintJSONDegradations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()
	in := filepath.Join(dir, "deep.c")
	if err := os.WriteFile(in, []byte(`
void work(void) {
    char buf[8];
    char src[40];
    memset(src, 'A', 30);
    src[30] = '\0';
    strcpy(buf, src);
}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	// A starved solver budget must degrade loudly in JSON too.
	out, err := exec.Command(bin, "-lint", "-json", "-budget", "1", in).Output()
	if code := exitCode(err); code != 0 && code != 3 {
		t.Fatalf("lint -json -budget: exit %d, want 0 or 3", code)
	}
	var sawDegradations bool
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		var trailer struct {
			File         string   `json:"file"`
			Degradations []string `json:"degradations"`
		}
		if err := json.Unmarshal([]byte(line), &trailer); err != nil {
			t.Fatalf("non-JSON line in -json output: %q (%v)", line, err)
		}
		if len(trailer.Degradations) > 0 {
			sawDegradations = true
			if trailer.File != in {
				t.Fatalf("degradations trailer names %q, want %q", trailer.File, in)
			}
		}
	}
	if !sawDegradations {
		t.Fatalf("budget-starved -lint -json missing degradations line:\n%s", out)
	}

	// A full-fidelity run emits no trailer.
	out, err = exec.Command(bin, "-lint", "-json", in).Output()
	if code := exitCode(err); code != 3 {
		t.Fatalf("lint -json: exit %d, want 3", code)
	}
	if strings.Contains(string(out), `"degradations"`) {
		t.Fatalf("full-fidelity run emitted a degradations trailer:\n%s", out)
	}
}

// TestCfixCLIProjectLintJSONDegradations: project-mode lint prints
// through the single-file lint printer, so -json carries one
// degradations trailer for each unit the text mode reports degraded.
func TestCfixCLIProjectLintJSONDegradations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	lint := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-p", "compile_commands.json", "-lint", "-budget", "1"}, args...)...)
		cmd.Dir = filepath.Join("examples", "project")
		var out, errOut strings.Builder
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if code := exitCode(cmd.Run()); code != 0 && code != 3 {
			t.Fatalf("cfix -p -lint %v: exit %d\n%s", args, code, errOut.String())
		}
		return out.String(), errOut.String()
	}
	degraded := map[string]bool{}
	_, notes := lint()
	for _, line := range strings.Split(notes, "\n") {
		if file, _, ok := strings.Cut(line, ": analysis degraded: "); ok {
			degraded[file] = true
		}
	}
	if len(degraded) == 0 {
		t.Fatalf("budget-starved project lint reported no degraded unit:\n%s", notes)
	}
	out, _ := lint("-json")
	trailers := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var trailer struct {
			File         string   `json:"file"`
			Degradations []string `json:"degradations"`
		}
		if err := json.Unmarshal([]byte(line), &trailer); err != nil {
			t.Fatalf("non-JSON line in -json output: %q (%v)", line, err)
		}
		if len(trailer.Degradations) > 0 {
			trailers[trailer.File]++
		}
	}
	for file := range degraded {
		if trailers[file] != 1 {
			t.Errorf("%s: %d degradations lines, want 1", file, trailers[file])
		}
	}
	if len(trailers) != len(degraded) {
		t.Errorf("degradations lines for %v, want for %v", trailers, degraded)
	}
}

// TestCfixCLITraceAndStageStats: `cfix -trace out.json -stage-stats`
// writes a valid Chrome trace-event file covering at least 10 distinct
// pipeline stages (the observability acceptance bar) and prints the
// aggregated per-stage table to stderr; the trace also passes the CI
// checker (cmd/tracecheck), keeping the two validators in agreement.
func TestCfixCLITraceAndStageStats(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfix")
	dir := t.TempDir()
	in := filepath.Join(dir, "vuln.c")
	// Default -summary keeps the lint oracle on, so the trace covers the
	// full stage vocabulary: parse, typecheck, the derived analyses, the
	// overflow oracle, SLR, STR, rewrite, fix.
	if err := os.WriteFile(in, []byte(`
void work(void) {
    char buf[8];
    strcpy(buf, "a string that is clearly too long");
    printf("%s\n", buf);
}
int main(void) {
    work();
    return 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	traceFile := filepath.Join(dir, "trace.json")

	cmd := exec.Command(bin, "-trace", traceFile, "-stage-stats",
		"-o", filepath.Join(dir, "fixed.c"), in)
	var stderrBuf strings.Builder
	cmd.Stderr = &stderrBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("cfix -trace: %v\n%s", err, stderrBuf.String())
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.Ts < 0 || ev.Dur <= 0 || ev.Name == "" {
			t.Fatalf("malformed event: %+v", ev)
		}
		names[ev.Name] = true
	}
	if len(names) < 10 {
		t.Fatalf("trace covers %d distinct stages, want >= 10: %v", len(names), names)
	}
	for _, want := range []string{"parse", "typecheck", "slr", "str", "fix"} {
		if !names[want] {
			t.Fatalf("trace missing stage %q: %v", want, names)
		}
	}

	// The -stage-stats table landed on stderr with its header and totals.
	for _, want := range []string{"stage", "count", "self", "degraded", "parse", "total"} {
		if !strings.Contains(stderrBuf.String(), want) {
			t.Fatalf("-stage-stats output missing %q:\n%s", want, stderrBuf.String())
		}
	}

	// The CI trace validator accepts the same file.
	check := buildTool(t, "cmd/tracecheck")
	if out, err := exec.Command(check, "-min-stages", "10", traceFile).CombinedOutput(); err != nil {
		t.Fatalf("tracecheck rejected the trace: %v\n%s", err, out)
	}
	// And rejects a malformed one.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[{"name":"","ph":"B"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(check, bad).Run(); err == nil {
		t.Fatal("tracecheck accepted a malformed trace")
	}
}

// TestCfixdCLIEndToEnd boots the real daemon on an ephemeral port,
// drives it over HTTP, and checks the SIGTERM drain contract.
func TestCfixdCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "cmd/cfixd")

	// Usage errors first: positional args and negative -j are refused.
	if code := exitCode(exec.Command(bin, "stray.c").Run()); code != 2 {
		t.Fatalf("positional arg: exit %d, want 2", code)
	}
	if code := exitCode(exec.Command(bin, "-j", "-2").Run()); code != 2 {
		t.Fatalf("-j -2: exit %d, want 2", code)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The startup line carries the resolved address; scripts parse it.
	lines := bufio.NewScanner(stderr)
	var base string
	for lines.Scan() {
		if _, after, ok := strings.Cut(lines.Text(), "listening on "); ok {
			base = after
			break
		}
	}
	if base == "" {
		t.Fatal("daemon never printed its listen address")
	}
	go func() { // keep draining so the daemon never blocks on stderr
		for lines.Scan() {
		}
	}()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := `{"filename":"vuln.c","source":"void f(void){ char b[4]; strcpy(b, \"far too long for four\"); }"}`
	fix := func() (cached bool, source string) {
		resp, err := http.Post(base+"/v1/fix", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("fix: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fix: %d", resp.StatusCode)
		}
		var out struct {
			Source string `json:"source"`
			Cached bool   `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Cached, out.Source
	}
	cached1, src1 := fix()
	cached2, src2 := fix()
	if cached1 {
		t.Fatal("cold request claims cached")
	}
	if !cached2 {
		t.Fatal("repeated request not served from cache")
	}
	if src1 != src2 || !strings.Contains(src1, "g_strlcpy") {
		t.Fatalf("daemon outputs diverge:\ncold: %s\nwarm: %s", src1, src2)
	}

	// SIGTERM drains and exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
}
