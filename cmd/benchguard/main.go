// Command benchguard compares two `go test -bench` outputs and fails
// when the candidate regresses past a threshold. CI's observability
// gate runs BenchmarkObsOverhead in the default build (candidate) and
// again under `-tags cfix_notrace` (baseline, tracing compiled out) and
// rejects the build if the default build's no-tracer path costs more
// than 2% over the compiled-out build.
//
// Usage:
//
//	benchguard [-max-pct p] candidate.txt baseline.txt
//
// Each file is standard `go test -bench` output; with -count=N every
// benchmark contributes N samples. Samples are reduced to their minimum
// (scheduler noise only ever adds time, so the minimum is the most
// stable estimate of the true cost) and the minima are compared per
// benchmark name. Benchmarks present in only one file are ignored;
// having no benchmark in common is an error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	maxPct := flag.Float64("max-pct", 2.0, "maximum allowed regression of candidate over baseline, in percent")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchguard [-max-pct p] candidate.txt baseline.txt")
		return 2
	}

	cand, err := parseBench(flag.Arg(0))
	if err != nil {
		return fail("%v", err)
	}
	base, err := parseBench(flag.Arg(1))
	if err != nil {
		return fail("%v", err)
	}

	names := make([]string, 0, len(cand))
	for name := range cand {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fail("no benchmarks in common between %s and %s", flag.Arg(0), flag.Arg(1))
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		c := slices.Min(cand[name])
		b := slices.Min(base[name])
		pct := (c - b) / b * 100
		verdict := "ok"
		if pct > *maxPct {
			verdict = fmt.Sprintf("FAIL (> %.1f%%)", *maxPct)
			failed = true
		}
		fmt.Printf("%-40s candidate %12.0f ns/op  baseline %12.0f ns/op  %+6.2f%%  %s\n",
			name, c, b, pct, verdict)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchguard: candidate regresses past the threshold")
		return 1
	}
	return 0
}

// parseBench extracts ns/op samples per benchmark name from `go test
// -bench` output. The CPU-count suffix (Benchmark-8) stays part of the
// name; both runs execute on the same machine, so suffixes agree.
func parseBench(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i < len(fields); i++ {
			if fields[i] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad ns/op value in %q", path, sc.Text())
			}
			out[fields[0]] = append(out[fields[0]], v)
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchguard: "+format+"\n", args...)
	return 1
}
