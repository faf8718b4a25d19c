package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/samate"
)

// equivCorpus returns at least min SAMATE programs as batch inputs,
// sampling every CWE class round-robin so all transformation shapes are
// covered.
func equivCorpus(t testing.TB, min int) []FileInput {
	t.Helper()
	for per := min/len(samate.CWEs) + 1; per < 1000; per++ {
		var inputs []FileInput
		for _, cwe := range samate.CWEs {
			n := per
			if max := samate.TableIIICounts[cwe]; n > max {
				n = max
			}
			for _, p := range samate.Generate(cwe, n) {
				inputs = append(inputs, FileInput{Filename: p.ID + ".c", Source: p.Source})
			}
		}
		if len(inputs) >= min {
			return inputs
		}
	}
	t.Fatalf("cannot assemble %d SAMATE programs", min)
	return nil
}

// TestFixAllMatchesSequentialFix: the parallel batch pipeline must be
// byte-identical to sequential per-file Fix over >= 200 SAMATE programs.
func TestFixAllMatchesSequentialFix(t *testing.T) {
	inputs := equivCorpus(t, 200)
	opts := Options{SelectOffset: -1, Lint: true}

	outs := FixAll(context.Background(), inputs, opts, 0)
	if len(outs) != len(inputs) {
		t.Fatalf("got %d outputs for %d inputs", len(outs), len(inputs))
	}
	for i, in := range inputs {
		want, err := Fix(context.Background(), in.Filename, in.Source, opts)
		if err != nil {
			t.Fatalf("%s: sequential: %v", in.Filename, err)
		}
		out := outs[i]
		if out.Filename != in.Filename {
			t.Fatalf("output %d is %s, want %s (order lost)", i, out.Filename, in.Filename)
		}
		if out.Err != nil {
			t.Fatalf("%s: batch: %v", in.Filename, out.Err)
		}
		if out.Report.Source != want.Source {
			t.Fatalf("%s: batch output differs from sequential Fix", in.Filename)
		}
		if len(out.Report.Findings) != len(want.Findings) {
			t.Fatalf("%s: findings diverge: %d vs %d",
				in.Filename, len(out.Report.Findings), len(want.Findings))
		}
	}
}

// TestFixAllParallelSpeedup is a smoke check of the acceptance claim that
// the pool beats sequential processing on a multicore box. The strict 2x
// bar lives in BenchmarkFixAllParallel; here we only require a clear win
// to keep CI stable under load.
func TestFixAllParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs, have %d", runtime.NumCPU())
	}
	inputs := equivCorpus(t, 200)
	opts := Options{SelectOffset: -1, Lint: true}

	start := time.Now()
	FixAll(context.Background(), inputs, opts, 1)
	seq := time.Since(start)

	start = time.Now()
	FixAll(context.Background(), inputs, opts, 0)
	par := time.Since(start)

	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel %v, speedup %.2fx on %d CPUs", seq, par, speedup, runtime.NumCPU())
	if speedup < 1.3 {
		t.Fatalf("parallel FixAll only %.2fx faster than sequential", speedup)
	}
}
