// Command bench is the repository's benchmark. It drives the four ways
// users reach the system — batch fixing of the SAMATE corpus, project
// mode, the cfixd service behind the fleet router, and incremental editor
// sessions — with inputs generated from a seed, checks every output
// against ground truth the generators planted, and prints one JSON
// result as its last line of output.
//
// Usage:
//
//	bench -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-out f.json]
//	bench -compare A.json... -- B.json...
//
// A plain run prints the end-to-end metrics; -trace 1 replays the same
// inputs on one goroutine and prints the per-layer metrics instead.
// -workload all runs every workload in its own process, one after the
// other, so that no workload's heap or caches carry into the next.
// -compare applies the
// paired-run rule and the regression bounds of BENCHMARK.json to two sets
// of -out files. Any incorrect output makes the exit status non-zero.
// cmd/bench/run.sh builds the program from source and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one user path under load.
type workload struct {
	name string
	// setup generates the seeded inputs and starts the components the
	// workload drives.
	setup func(seed int64) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// measure applies the workload's load until deadline, recording the
	// ops that start at or after warm, and checks every output.
	measure(tl *tally, warm, deadline time.Time) measurement
	// verify runs the checks that follow the timed phase.
	verify(tl *tally)
	// trace replays the workload's inputs on one goroutine until
	// deadline, attributing time to layers.
	trace(tl *tally, tr *tracer, deadline time.Time) error
	// close stops every component setup started and waits for it.
	close()
}

// measurement is the timed phase of one run.
type measurement struct {
	// latencies are the recorded ops' latencies in milliseconds.
	latencies []float64
	// wall is the timed phase's length.
	wall time.Duration
}

var workloads = []workload{
	{name: "samate-batch", setup: setupSamate},
	{name: "project", setup: setupProject},
	{name: "service", setup: setupService},
	{name: "session", setup: setupSession},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a plain run reports for every workload. An
// op is one fixed file, one project run, one service request or one
// session edit.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports for every workload; a
// layer the workload never reaches reads 0.
var perLayer = func() []metricSpec {
	var specs []metricSpec
	for _, name := range layerNames {
		specs = append(specs, metricSpec{name + ".ms_per_op", "ms"})
	}
	for _, l := range frontLayers {
		specs = append(specs, metricSpec{layerNames[l] + ".allocs_per_op", "count"})
	}
	return append(specs,
		metricSpec{"core.ms_per_op", "ms"},
		metricSpec{"cpp.calls_per_op", "count"},
		metricSpec{"cpp.out_in_ratio", "ratio"},
		metricSpec{"cparse.calls_per_op", "count"},
		metricSpec{"clex.mb_per_s", "MB/s"},
		metricSpec{"cparse.mb_per_s", "MB/s"},
		metricSpec{"slr.applied_ratio", "ratio"},
		metricSpec{"str.applied_ratio", "ratio"},
		metricSpec{"project.scan_ms_per_op", "ms"},
		metricSpec{"project.fix_ms_per_op", "ms"},
		metricSpec{"project.edges", "count"},
		metricSpec{"cache.hit_ratio", "ratio"},
		metricSpec{"cache.kb_per_entry", "kB"},
		metricSpec{"server.handler_p50_ms", "ms"},
		metricSpec{"server.rejected_frac", "ratio"},
		metricSpec{"fleet.overhead_p50_ms", "ms"},
		metricSpec{"fleet.retries_per_req", "count"},
		metricSpec{"fleet.hedges_per_req", "count"},
		metricSpec{"incremental.edit_ms_per_op", "ms"},
		metricSpec{"incremental.reuse_ratio", "ratio"},
		metricSpec{"incremental.reanalyzed_per_edit", "count"},
		metricSpec{"gc.cycles_per_op", "count"},
		metricSpec{"gc.pause_ms_per_op", "ms"},
		metricSpec{"heap.alloc_mb_per_op", "MB"},
		metricSpec{"heap.allocs_per_op", "count"},
		metricSpec{"trace.coverage_pct", "%"},
	)
}()

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out stores it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Samples  int     `json:"samples"`
	TailPct  float64 `json:"tail_percentile"`
	// Latency holds more percentiles of the op latencies in ms than the
	// result reports, keyed "p50", "p90", "p99" and "p99.9".
	Latency map[string]float64 `json:"latency_ms,omitempty"`
	// Setups holds every set-up time in seconds; setup_s is their
	// median.
	Setups    []float64 `json:"setup_s,omitempty"`
	GoVersion string    `json:"go_version"`
	CPUs      int       `json:"cpus"`
	Result    result    `json:"result"`
}

// tally counts checked operations; it is safe for concurrent use.
type tally struct {
	attempted, failed, logged atomic.Int64
}

// check counts one checked operation, failed when err is non-nil. The
// first few failures are printed to standard error.
func (t *tally) check(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	if t.logged.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	return false
}

// closedLoop runs workers goroutines, each calling op with successive op
// indices (shared across workers) until deadline, and records the latency
// op returns for every op that starts at or after warm. op checks its own
// output; its error counts as a failed op.
func closedLoop(tl *tally, workers int, warm, deadline time.Time, op func(worker, i int) (time.Duration, error)) measurement {
	var next atomic.Int64
	lat := make([][]float64, workers)
	last := make([]time.Time, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				d, err := op(w, int(next.Add(1)-1))
				tl.check(err)
				if err == nil && !start.Before(warm) {
					lat[w] = append(lat[w], ms(d))
					last[w] = time.Now()
				}
			}
		}(w)
	}
	wg.Wait()
	var m measurement
	end := warm
	for w := range lat {
		m.latencies = append(m.latencies, lat[w]...)
		if last[w].After(end) {
			end = last[w]
		}
	}
	m.wall = end.Sub(warm)
	return m
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and every set-up but the last is closed again.
const setupRuns = 9

// runOne sets one workload up, measures or traces it, and returns its
// record.
func runOne(w workload, seed int64, seconds float64, trace bool) (record, error) {
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds,
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	n := setupRuns
	if trace {
		rec.Trace = 1
		n = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return rec, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	var tl tally
	values := make(map[string]float64)
	start := time.Now()
	dur := time.Duration(seconds * float64(time.Second))
	if trace {
		tr := newTracer()
		if err := inst.trace(&tl, tr, start.Add(dur)); err != nil {
			return rec, fmt.Errorf("%s: trace: %w", w.name, err)
		}
		rec.Samples = tr.ops
		values = tr.metrics()
	} else {
		warm := start.Add(dur / 10)
		heap := watchHeap()
		m := inst.measure(&tl, warm, warm.Add(dur))
		values["live_heap_mb"] = heap.done()
		inst.verify(&tl)
		sort.Float64s(m.latencies)
		ops := float64(len(m.latencies))
		rec.Samples = len(m.latencies)
		_, setupMedian, _ := quartiles(setups)
		values["ops_per_s"] = ratio(ops, m.wall.Seconds())
		values["op_p50_ms"] = percentile(m.latencies, 50)
		values["op_p90_ms"] = percentile(m.latencies, 90)
		rec.Latency = make(map[string]float64)
		for _, p := range []float64{50, 90, 99, 99.9} {
			rec.Latency[fmt.Sprintf("p%g", p)] = percentile(m.latencies, p)
		}
		rec.Setups = setups
		values["setup_s"] = setupMedian
		if ops == 0 {
			tl.check(errors.New("no op completed in the timed phase"))
		}
	}
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	rec.Result = result{
		Attempted: int(tl.attempted.Load()),
		Failed:    int(tl.failed.Load()),
		Metrics:   make(map[string]metric, len(specs)),
	}
	rec.Result.Correct = rec.Result.Failed == 0 && rec.Result.Attempted > 0
	for _, s := range specs {
		rec.Result.Metrics[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
	return rec, nil
}

// printRecord prints one line per metric as "workload metric value unit".
func printRecord(w io.Writer, rec record) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s samples %d ops; checked %d ops, %d failed\n",
		rec.Workload, rec.Samples, rec.Result.Attempted, rec.Result.Failed)
}

// runAll runs every workload in a child process of this binary, one
// after the other, and merges their results; a metric is keyed
// "<workload>/<metric>" in the merged line.
func runAll(seed int64, seconds float64, trace int) ([]record, result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, result{}, err
	}
	merged := result{Correct: true, Metrics: make(map[string]metric)}
	var recs []record
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", fmt.Sprint(trace), "-records")
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var rec record
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
			return nil, result{}, fmt.Errorf("%s: no result (%v): %w", w.name, runErr, err)
		}
		printRecord(os.Stdout, rec)
		recs = append(recs, rec)
		merged.Correct = merged.Correct && rec.Result.Correct
		merged.Attempted += rec.Result.Attempted
		merged.Failed += rec.Result.Failed
		for name, m := range rec.Result.Metrics {
			merged.Metrics[w.name+"/"+name] = m
		}
	}
	return recs, merged, nil
}

func writeRecords(path string, recs []record) error {
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "all", `workload to run: "all" or one of `+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input generator draws from")
		seconds = flag.Float64("seconds", 25, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 replays the inputs on one goroutine and reports per-layer metrics")
		out     = flag.String("out", "", "also write the run records to this JSON file")
		compare = flag.Bool("compare", false, "compare -out files: bench -compare A.json... -- B.json...")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
		records = flag.Bool("records", false, "print the run record, not the result, as the last line (used by -workload all)")
	)
	flag.Parse()
	if *compare {
		return runCompare(os.Stdout, *spec, flag.Args())
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	var recs []record
	var res result
	if *name == "all" {
		var err error
		if recs, res, err = runAll(*seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
			return 2
		}
		rec, err := runOne(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		recs, res = []record{rec}, rec.Result
		if !*records {
			printRecord(os.Stdout, rec)
		}
	}
	if *out != "" {
		if err := writeRecords(*out, recs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	var last any = res
	if *records {
		last = recs[0]
	}
	line, err := json.Marshal(last)
	if err == nil {
		_, err = fmt.Printf("%s\n", line)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
