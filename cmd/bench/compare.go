package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// loadRecords reads -out files in order.
func loadRecords(paths []string) ([]record, error) {
	var all []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var recs []record
		if err := json.Unmarshal(b, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, recs...)
	}
	return all, nil
}

// series collects one side's values per workload and metric, in run
// order.
func series(recs []record) map[[2]string][]float64 {
	out := make(map[[2]string][]float64)
	for _, r := range recs {
		for name, m := range r.Result.Metrics {
			k := [2]string{r.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// verdict applies the paired-run rule and the regression bound to one
// metric. a holds the parent's runs and b the change's, paired by index;
// bound is 0 for a metric without one.
//
//   - worse: b's median is worse than a's by more than the bound;
//   - better: at least ten pairs, b wins at least nine in ten of them,
//     and the medians differ by more than a's interquartile distance;
//   - unresolved: a's own spread exceeds the bound, so a regression of
//     the bound's size could hide in it, unless every run of b reads
//     better than every run of a;
//   - same: otherwise.
func verdict(a, b []float64, higher bool, bound float64) (string, int, int) {
	better := func(x, y float64) bool { // x better than y
		if higher {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	worse := (medB - medA) / math.Abs(medA)
	if higher {
		worse = -worse
	}
	switch {
	case medA == 0 && medB == 0:
		return "same", wins, pairs
	case bound > 0 && worse > bound:
		return "worse", wins, pairs
	case pairs >= 10 && 10*wins >= 9*pairs && math.Abs(medB-medA) > q3-q1:
		return "better", wins, pairs
	case bound > 0 && spread(a) > bound && !allBetter(a, b, better):
		return "unresolved", wins, pairs
	}
	return "same", wins, pairs
}

func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// runCompare prints one row per workload and metric present on both
// sides of "A.json... -- B.json..." and fails when any row is worse.
func runCompare(w io.Writer, specPath string, args []string) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench -compare A.json... -- B.json...")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	ra, err := loadRecords(args[:sep])
	if err == nil {
		var rb []record
		if rb, err = loadRecords(args[sep+1:]); err == nil {
			return printComparison(w, spec, series(ra), series(rb))
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printComparison(w io.Writer, spec benchSpec, a, b map[[2]string][]float64) int {
	metrics := make(map[string]specMetric)
	for _, m := range append(append([]specMetric(nil), spec.PerLayer...), spec.EndToEnd...) {
		metrics[m.Name] = m
	}
	var keys [][2]string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "%-13s %-32s %14s %14s %8s %6s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "wins", "bound", "verdict")
	status := 0
	for _, k := range keys {
		m := metrics[k[1]]
		v, wins, pairs := verdict(a[k], b[k], m.Better == "higher", m.Bound)
		if v == "worse" {
			status = 1
		}
		_, medA, _ := quartiles(a[k])
		_, medB, _ := quartiles(b[k])
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(w, "%-13s %-32s %14.6g %14.6g %+7.1f%% %2d/%-3d %8s  %s\n",
			k[0], k[1], medA, medB, 100*ratio(medB-medA, math.Abs(medA)), wins, pairs, bound, v)
	}
	if len(keys) == 0 {
		fmt.Fprintln(w, "no workload and metric appear on both sides")
		return 2
	}
	return status
}
