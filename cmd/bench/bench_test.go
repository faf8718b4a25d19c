package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"repro/pkg/cfix"
)

// specPath is BENCHMARK.json at the root of the tree, seen from the
// package directory the tests run in.
const specPath = "../../BENCHMARK.json"

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram pins the metric names and units the program
// reports to the ones BENCHMARK.json declares, and the workloads to the
// ones it runs.
func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	check := func(kind string, declared []specMetric, reported []metricSpec) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(reported))
		}
		for i := range min(len(declared), len(reported)) {
			if declared[i].Name != reported[i].name || declared[i].Unit != reported[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	b, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &names); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range names.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.ReplaceAll(workloadNames(), ", ", ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %s", got, workloadNames())
	}
}

// shortSeconds is the timed phase of the short runs: one second, or
// five under the race detector, which slows a project run past one.
func shortSeconds() float64 {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return 5
			}
		}
	}
	return 1
}

// TestShortRuns runs every workload for about a second, plain and
// traced, and checks that each result is correct and carries exactly
// the metrics BENCHMARK.json names.
func TestShortRuns(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				rec, err := runOne(w, 7, shortSeconds(), trace)
				if err != nil {
					t.Fatal(err)
				}
				res := rec.Result
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
				}
				if trace {
					if c := res.Metrics["trace.coverage_pct"].Value; c < 80 || c > 120 {
						t.Errorf("trace.coverage_pct = %.1f", c)
					}
				} else {
					for _, s := range want {
						if res.Metrics[s.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", s.name, res.Metrics[s.name].Value)
						}
					}
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil {
					t.Fatal(err)
				}
				var names []string
				for k := range keys {
					names = append(names, k)
				}
				sort.Strings(names)
				if strings.Join(names, ",") != "attempted,correct,failed,metrics" {
					t.Errorf("result keys %v", names)
				}
			})
		}
	}
}

// inputDigests hashes every generator's output for one seed.
func inputDigests(t *testing.T, seed int64) map[string][32]byte {
	t.Helper()
	d := make(map[string][32]byte)
	sum := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		d[name] = sha256.Sum256(b)
	}
	inst, err := setupSamate(seed)
	if err != nil {
		t.Fatal(err)
	}
	sum("samate-batch", inst.(*samateRun).order)
	files, headers, callee, err := genProject(seed)
	if err != nil {
		t.Fatal(err)
	}
	sum("project", []any{files, headers, callee})
	sum("service", fmt.Sprint(planService(seed, 4505)))
	text, size, over, err := sessionText(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e := &editor{rng: rand.New(rand.NewSource(seed)), text: text, size: size, over: over}
	var edits []cfix.SessionDelta
	for i := 0; i < 50; i++ {
		edits = append(edits, e.next())
	}
	sum("session", []any{text, edits})
	return d
}

// TestInputsFollowSeed checks that a seed fixes every generated input
// and that another seed draws other inputs.
func TestInputsFollowSeed(t *testing.T) {
	a, b, c := inputDigests(t, 11), inputDigests(t, 11), inputDigests(t, 12)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if a[name] == c[name] {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", name)
		}
	}
}

// TestTracedFixMatchesFix replays a SAMATE sample through the traced
// op and requires output byte-identical to an untraced cfix.Fix, the
// STR re-parse to show up as a second parse, and the layers to account
// for the ops' time.
func TestTracedFixMatchesFix(t *testing.T) {
	progs := samatePrograms()
	tr := newTracer()
	var tl tally
	for i := 0; i < len(progs); i += 25 {
		p := progs[i]
		want, err := cfix.Fix(p.ID+".c", p.Source, samateOptions)
		if err != nil {
			t.Fatal(err)
		}
		same := func(rep *cfix.Report) error {
			if rep.Source != want.Source {
				return fmt.Errorf("%s: traced output differs from cfix.Fix", p.ID)
			}
			return nil
		}
		if err := tr.fixFile(&tl, p.ID+".c", p.Source, samateOptions, same); err != nil {
			t.Fatal(err)
		}
	}
	if n := tl.failed.Load(); n != 0 {
		t.Fatalf("%d of %d traced ops failed", n, tl.attempted.Load())
	}
	if tr.parseCalls <= int64(tr.ops) {
		t.Errorf("%d parses in %d ops: no sampled program went through the STR re-parse", tr.parseCalls, tr.ops)
	}
	m := tr.metrics()
	if c := m["trace.coverage_pct"]; c < 90 || c > 110 {
		t.Errorf("trace.coverage_pct = %.1f", c)
	}
	for _, name := range []string{"clex", "cparse", "pointsto", "overflow", "intflow", "slr", "str"} {
		if m[name+".ms_per_op"] <= 0 {
			t.Errorf("%s.ms_per_op = %v, want > 0", name, m[name+".ms_per_op"])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"unchanged", steady, shift(steady, 0.5), false, 0.1, "same"},
		{"faster", steady, shift(steady, -5), false, 0.1, "better"},
		{"slower within bound", steady, shift(steady, 5), false, 0.1, "same"},
		{"slower past bound", steady, shift(steady, 20), false, 0.1, "worse"},
		{"higher is better", steady, shift(steady, -20), true, 0.1, "worse"},
		{"too few pairs", steady[:5], shift(steady[:5], -5), false, 0.1, "same"},
		{"noisy parent", noisy, shift(noisy, 5), false, 0.1, "unresolved"},
	} {
		if got, _, _ := verdict(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
