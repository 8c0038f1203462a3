// Command perfbench is memexplore's benchmark. It runs one named workload
// for a fixed time and prints, as the last line of standard output, one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures, measured with no
// spans recorded. With --trace 1 a separate traced run replays the calls
// into each layer, records one span around each, writes the spans to a
// file and reports the per-layer figures derived from them.
//
// Inputs are generated from --seed alone, so one seed always yields the
// same inputs and the same simulated statistics; the "digest" line repeats
// exactly across runs of one seed. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload trace-exact --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run hands back to main: the result plus the
// digest of every simulated statistic it produced and free-form notes.
type outcome struct {
	result
	digest string
	notes  []string
}

// runConfig carries the command line into a workload.
type runConfig struct {
	seed    int64
	seconds float64
	// scale divides every input size; the benchmark runs at 1, and the
	// smoke tests set larger values for quick inputs.
	scale int
	// dir is a private scratch directory for generated input files.
	dir string
	// outDir receives the span file of a traced run.
	outDir string
}

// workloads maps each workload name to its measured and traced runs.
var workloads = map[string]struct {
	measure func(context.Context, runConfig) (outcome, error)
	traced  func(context.Context, runConfig) (outcome, error)
}{
	"trace-exact":   {measureTraceExact, tracedTraceExact},
	"trace-sampled": {measureTraceSampled, tracedTraceSampled},
	"service-mix":   {measureServiceMix, tracedServiceMix},
}

func main() {
	workload := flag.String("workload", "", "workload name: trace-exact, trace-sampled or service-mix")
	seed := flag.Int64("seed", 1, "workload seed (default seed 1; held-out seed 2)")
	seconds := flag.Float64("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the measured run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch inputs and span files")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload trace-exact|trace-sampled|service-mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*out, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, dir: dir, outDir: *out}

	stamp, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "rev": buildRevision(),
	})
	fmt.Println("stamp", string(stamp))

	run := w.measure
	if *traced == 1 {
		run = w.traced
	}
	o, err := run(context.Background(), cfg)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Println("note", n)
	}
	fmt.Println("digest", o.digest)
	line, err := json.Marshal(o.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildRevision reports the git revision run.sh found, or "unknown".
func buildRevision() string {
	if rev := os.Getenv("PERFBENCH_REV"); rev != "" {
		return rev
	}
	return "unknown"
}

// deadline returns the end of a measurement window that starts now.
func deadline(cfg runConfig) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}
