// Command perfbench is the repository benchmark. It runs one workload as
// a closed loop — one simulation at a time, from one process, runner
// Workers = 1 and SimWorkers = 1 — for a fixed number of host seconds,
// checks every simulated result, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1). The last line of standard output is a JSON object with
// the keys correct, attempted, failed and metrics.
//
// Build and run it from the repository root with perfbench/run.sh; the
// workloads, their sizes, the pinned result digests and the table of
// which layer metric should move which end-to-end metric are in
// perfbench/spec.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the program reads: each workload's
// parameters and pinned seed-1 result digest by size, default for the
// benchmark and smoke for its tests. The rest of the file documents the
// workloads for readers.
type spec struct {
	Workloads []struct {
		Name   string            `json:"name"`
		Params map[string]params `json:"params"`
		Pins   map[string]string `json:"pins"`
	} `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: paper-suite, cluster-clean, cluster-chaos or fs-etl")
	seed := fl.Uint64("seed", 1, "workload seed (1 is the golden seed whose result digests are pinned)")
	seconds := fl.Float64("seconds", 10, "host seconds to measure")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *seed == 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1, --seconds and --seed positive")
		return 2
	}
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		fmt.Fprintf(stderr, "perfbench: spec.json: %v\n", err)
		return 1
	}
	// The smoke size in spec.json is for the benchmark's own tests only.
	cfg := config{name: *workload, size: "default", seed: *seed, seconds: *seconds, trace: *trace == 1}
	for _, w := range sp.Workloads {
		if w.Name == cfg.name {
			cfg.params, cfg.pin = w.Params[cfg.size], w.Pins[cfg.size]
		}
	}
	if cfg.params == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.name)
		return 2
	}
	// A closed loop on one processor. With a second one the garbage
	// collector's workers and an idle processor spinning for goroutines
	// to steal run beside the simulation: their CPU time is counted in
	// run_cpu_s, and on a host whose processors are hyperthreads of one
	// core they slow the measured thread by up to 2x, so both times
	// would vary from one repetition to the next.
	runtime.GOMAXPROCS(1)
	man, err := manifest(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: %s: failed run: %s\n", cfg.name, f)
	}
	mb, err := json.Marshal(man)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "manifest %s\n", mb)
	printTable(stdout, res.e2e, res.order)
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	metrics := res.e2e
	if cfg.trace {
		printTable(stdout, res.layer, res.layerOrder)
		metrics = res.layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, len(res.failures), metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printTable(w io.Writer, m map[string]metric, order []string) {
	for _, name := range order {
		v := m[name]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, v.Value, v.Unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest whole percentile that has at least
// ten samples beyond it, or 0 when there are too few samples for one.
func tailPercentile(n int) int {
	if n <= 10 {
		return 0
	}
	return int(100 * float64(n-10) / float64(n))
}
