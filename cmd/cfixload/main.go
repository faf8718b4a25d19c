// Command cfixload drives a cfixd (or cfixd -route fleet) with a
// service-shaped workload and writes the measured service-level numbers
// as BENCH_service.json — the service counterpart of cmd/experiments'
// BENCH_pipeline.json.
//
// The workload is the synthetic SAMATE corpus with zipf-distributed
// file popularity (a few hot translation units, a long cold tail — the
// shape a CI fleet actually sees), a configurable mutation rate (a
// mutated request gets a unique source suffix, forcing a fingerprint
// miss the way an edited file does), and a stepped concurrency ramp so
// the saturation throughput is measured rather than guessed.
//
// Usage:
//
//	cfixload -target http://host:port [flags]
//
//	-target url      cfixd or router base URL (required)
//	-requests n      total requests across the ramp (default 500)
//	-workers n       peak concurrency, reached at the last ramp step
//	                 (default 16)
//	-ramp-steps n    concurrency ramp steps (default 4; 1 = flat)
//	-zipf-s s        zipf exponent for file popularity (default 1.2;
//	                 must be > 1)
//	-mutate p        fraction of requests mutated to force cache misses
//	                 (default 0.1)
//	-seed n          workload PRNG seed (default 1)
//	-timeout d       per-request client timeout (default 2m)
//	-out path        report path (default BENCH_service.json; "-" for
//	                 stdout)
//
// Every request failure (after the client's own bounded 429/503
// retries) is counted and reported; any failure makes the exit status
// nonzero, so a CI chaos job can assert "zero failed requests" by exit
// code alone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/samate"
	"repro/pkg/cfix"
)

// Report is the BENCH_service.json schema.
type Report struct {
	Suite     string `json:"suite"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`

	Target string `json:"target"`
	// Router reports whether the target identified itself as a fleet
	// router in /metrics; the retry/hedge rates only exist then.
	Router bool `json:"router"`

	Requests       int     `json:"requests"`
	Failures       int     `json:"failures"`
	UniquePrograms int     `json:"unique_programs"`
	ZipfS          float64 `json:"zipf_s"`
	MutationRate   float64 `json:"mutation_rate"`
	Seed           int64   `json:"seed"`
	PeakWorkers    int     `json:"peak_workers"`

	WallMs     float64 `json:"wall_ms"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	OverallQPS float64 `json:"overall_qps"`
	// SaturationQPS is the best throughput any ramp step sustained —
	// the capacity estimate the ramp exists to produce.
	SaturationQPS float64 `json:"saturation_qps"`

	// HitRatio is the fraction of successful responses served from a
	// backend result cache (the wire Cached flag), visible identically
	// through the router and a single daemon.
	HitRatio float64 `json:"hit_ratio"`

	// Retry/hedge rates are per request routed through a fleet router,
	// read as /metrics deltas around the run; zero for a single daemon.
	RetryRate float64 `json:"retry_rate"`
	HedgeRate float64 `json:"hedge_rate"`
	Routed    int64   `json:"routed_delta,omitempty"`
	Retried   int64   `json:"retried_delta,omitempty"`
	Hedged    int64   `json:"hedged_delta,omitempty"`

	Steps []Step `json:"steps"`
}

// Step is one rung of the concurrency ramp.
type Step struct {
	Workers  int     `json:"workers"`
	Requests int     `json:"requests"`
	Failures int     `json:"failures"`
	QPS      float64 `json:"qps"`
	P99Ms    float64 `json:"p99_ms"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		target    = flag.String("target", "", "cfixd or router base URL (required)")
		requests  = flag.Int("requests", 500, "total requests across the ramp")
		workers   = flag.Int("workers", 16, "peak concurrency, reached at the last ramp step")
		rampSteps = flag.Int("ramp-steps", 4, "concurrency ramp steps (1 = flat)")
		zipfS     = flag.Float64("zipf-s", 1.2, "zipf exponent for file popularity (> 1)")
		mutate    = flag.Float64("mutate", 0.1, "fraction of requests mutated to force cache misses (0..1)")
		seed      = flag.Int64("seed", 1, "workload PRNG seed")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-request client timeout")
		out       = flag.String("out", "BENCH_service.json", `report path ("-" for stdout)`)
	)
	flag.Parse()
	if *target == "" || *requests <= 0 || *workers <= 0 || *rampSteps <= 0 ||
		*zipfS <= 1 || *mutate < 0 || *mutate > 1 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}

	// The corpus, in a deterministic order so (seed, flags) pins the
	// whole workload.
	byCWE := samate.GenerateAll()
	cwes := make([]int, 0, len(byCWE))
	for cwe := range byCWE {
		cwes = append(cwes, cwe)
	}
	sort.Ints(cwes)
	var corpus []samate.Program
	for _, cwe := range cwes {
		corpus = append(corpus, byCWE[cwe]...)
	}
	if len(corpus) == 0 {
		fmt.Fprintln(os.Stderr, "cfixload: empty SAMATE corpus")
		return 1
	}

	client := cfix.NewClient(*target)
	client.RequestTimeout = *timeout
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "cfixload: target %s not healthy: %v\n", *target, err)
		return 1
	}
	before, err := client.MetricsRaw(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cfixload: reading /metrics: %v\n", err)
		return 1
	}

	// Pre-plan every request so the measured section does no PRNG work
	// and the plan is independent of scheduling: request i targets
	// corpus[plan[i]] and, if mutated[i] != 0, appends a unique suffix.
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(corpus)-1))
	plan := make([]int, *requests)
	mutated := make([]int, *requests)
	nmut := 0
	for i := range plan {
		plan[i] = int(zipf.Uint64())
		if rng.Float64() < *mutate {
			nmut++
			mutated[i] = nmut
		}
	}

	type sample struct {
		ms     float64
		cached bool
		failed bool
	}
	samples := make([]sample, *requests)
	runRange := func(from, to, conc int) time.Duration {
		var wg sync.WaitGroup
		next := make(chan int)
		start := time.Now()
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					p := corpus[plan[i]]
					src := p.Source
					if mutated[i] != 0 {
						src = fmt.Sprintf("%s\n// cfixload mutation %d-%d\n", src, *seed, mutated[i])
					}
					t0 := time.Now()
					resp, err := client.Fix(ctx, cfix.FixRequest{Filename: p.ID + ".c", Source: src})
					samples[i].ms = float64(time.Since(t0)) / float64(time.Millisecond)
					if err != nil {
						samples[i].failed = true
						fmt.Fprintf(os.Stderr, "cfixload: request %d (%s): %v\n", i, p.ID, err)
						continue
					}
					samples[i].cached = resp.Cached
				}
			}()
		}
		for i := from; i < to; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		return time.Since(start)
	}

	// The ramp: requests split evenly across steps, concurrency rising
	// linearly to -workers at the last step.
	rep := Report{
		Suite:          "cfix-service-load",
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		CPUs:           runtime.NumCPU(),
		Target:         *target,
		Requests:       *requests,
		UniquePrograms: len(corpus),
		ZipfS:          *zipfS,
		MutationRate:   *mutate,
		Seed:           *seed,
		PeakWorkers:    *workers,
	}
	wallStart := time.Now()
	for s := 0; s < *rampSteps; s++ {
		from := *requests * s / *rampSteps
		to := *requests * (s + 1) / *rampSteps
		if from == to {
			continue
		}
		conc := max(1, *workers*(s+1)/(*rampSteps))
		elapsed := runRange(from, to, conc)
		step := Step{Workers: conc, Requests: to - from}
		var stepMs []float64
		for i := from; i < to; i++ {
			if samples[i].failed {
				step.Failures++
			} else {
				stepMs = append(stepMs, samples[i].ms)
			}
		}
		if elapsed > 0 {
			step.QPS = float64(to-from) / elapsed.Seconds()
		}
		step.P99Ms = percentile(stepMs, 0.99)
		if step.QPS > rep.SaturationQPS {
			rep.SaturationQPS = step.QPS
		}
		rep.Steps = append(rep.Steps, step)
		fmt.Fprintf(os.Stderr, "cfixload: step %d/%d: %d requests @ %d workers: %.1f qps, p99 %.1fms, %d failures\n",
			s+1, *rampSteps, step.Requests, conc, step.QPS, step.P99Ms, step.Failures)
	}
	wall := time.Since(wallStart)

	var okMs []float64
	var sum float64
	cachedN := 0
	for _, sm := range samples {
		if sm.failed {
			rep.Failures++
			continue
		}
		okMs = append(okMs, sm.ms)
		sum += sm.ms
		if sm.cached {
			cachedN++
		}
	}
	rep.WallMs = float64(wall) / float64(time.Millisecond)
	if wall > 0 {
		rep.OverallQPS = float64(*requests) / wall.Seconds()
	}
	if len(okMs) > 0 {
		rep.MeanMs = sum / float64(len(okMs))
		rep.P50Ms = percentile(okMs, 0.50)
		rep.P90Ms = percentile(okMs, 0.90)
		rep.P99Ms = percentile(okMs, 0.99)
		sort.Float64s(okMs)
		rep.MaxMs = okMs[len(okMs)-1]
		rep.HitRatio = float64(cachedN) / float64(len(okMs))
	}

	// Fleet counters, as deltas around the run; only a router has them.
	if after, err := client.MetricsRaw(ctx); err == nil {
		if isRouter, _ := after["router"].(bool); isRouter {
			rep.Router = true
			rep.Routed = delta(before, after, "routed_total")
			rep.Retried = delta(before, after, "retried_total")
			rep.Hedged = delta(before, after, "hedged_total")
			rep.RetryRate = float64(rep.Retried) / float64(*requests)
			rep.HedgeRate = float64(rep.Hedged) / float64(*requests)
		}
	} else {
		fmt.Fprintf(os.Stderr, "cfixload: reading /metrics after the run: %v\n", err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cfixload: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "cfixload: writing report: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "cfixload: %d requests, %d failures, p50 %.1fms p99 %.1fms, saturation %.1f qps, hit ratio %.2f\n",
		rep.Requests, rep.Failures, rep.P50Ms, rep.P99Ms, rep.SaturationQPS, rep.HitRatio)
	if rep.Failures > 0 {
		return 1
	}
	return 0
}

// percentile returns the pth (0..1) percentile of ms by
// nearest-rank; 0 for an empty slice. Sorts a copy.
func percentile(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// delta reads an int64 counter from two /metrics snapshots (JSON
// numbers decode as float64) and returns its increase.
func delta(before, after map[string]any, key string) int64 {
	b, _ := before[key].(float64)
	a, _ := after[key].(float64)
	return int64(a - b)
}
