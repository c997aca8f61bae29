// Command suite runs the paper's full factorial experiment (six access
// patterns × four synchronization styles × two I/O intensities, with and
// without prefetching) and prints the per-cell table, the aggregate
// summary the paper reports in its text, and the per-pattern breakdown
// of §V-F.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	rapid "repro"
)

func main() {
	var (
		scale      = flag.String("scale", "paper", "experiment scale: paper, test, or cluster (100k-1M node compact-engine sweep)")
		scaleNodes = flag.String("scale-nodes", "", "comma-separated node counts for -scale cluster (default 100000,250000,500000,1000000)")
		telemetry  = flag.Bool("telemetry", false, "with -scale cluster: attach the windowed telemetry sink (plus a 16-node sample) to the leading prefetch cell and write its time series and sampled trace to -csv")
		chaos      = flag.Bool("chaos", false, "with -scale cluster: run the chaos study instead — claims C1-C5 (fault determinism, zero-value inertness, quorum vs deadlock, prefetch masking, proportional domain kills) plus one chaos cell per size")
		csvDir     = flag.String("csv", "", "directory to write per-figure CSV data")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		progress   = flag.Bool("progress", false, "report run completions to stderr")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile (taken after the suite) to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "suite:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "suite:", err)
			os.Exit(1)
		}
		// Worker bodies carry pprof labels (run index, config label), so
		// this profile can be sliced per experimental cell. LIFO: stop
		// (and flush) the profile before the file closes.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	if *scale == "cluster" {
		runCluster(*scaleNodes, *csvDir, *telemetry, *chaos, *progress, *memProf)
		return
	}
	if *telemetry {
		fmt.Fprintln(os.Stderr, "suite: -telemetry only applies to -scale cluster")
		os.Exit(1)
	}
	if *chaos {
		fmt.Fprintln(os.Stderr, "suite: -chaos only applies to -scale cluster")
		os.Exit(1)
	}

	var opts rapid.SuiteOptions
	switch *scale {
	case "paper":
		opts = rapid.PaperScale()
	case "test":
		opts = rapid.TestScale()
	default:
		fmt.Fprintf(os.Stderr, "suite: unknown scale %q\n", *scale)
		os.Exit(1)
	}
	opts.Workers = *workers
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rrun %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	fmt.Printf("running %d experiment pairs at %s scale...\n\n", 46, *scale)
	s := rapid.RunSuite(opts)
	fmt.Println(s.Table())

	sum := s.Summarize()
	fmt.Println("aggregate summary (compare with the paper's §V text):")
	fmt.Printf("  experiments:                         %d\n", sum.Experiments)
	fmt.Printf("  read-time reduction:                 median %.0f%%, max %.0f%% (paper: 48%%, 88%%)\n",
		sum.ReadReduction.Median(), sum.ReadReduction.Max())
	fmt.Printf("  read-time reduction > 35%%:           %.0f%% of runs (paper: 60%%)\n",
		100*(1-sum.ReadReduction.FractionAtMost(35)))
	fmt.Printf("  hit ratio with prefetching:          min %.2f, median %.2f (paper: all > 0.69, half > 0.86)\n",
		sum.HitRatioPrefetch.Min(), sum.HitRatioPrefetch.Median())
	fmt.Printf("  exec-time reduction:                 median %.0f%%, max %.0f%% (paper: most > 15%%, up to 69%%)\n",
		sum.ExecReduction.Median(), sum.ExecReduction.Max())
	fmt.Printf("  slowdowns under prefetching:         %d (paper: 3, all lfp)\n", sum.Slowdowns)
	fmt.Printf("  sync time increased by prefetching:  %d of %d (paper: usually)\n",
		sum.SyncTimeIncreased, sum.SyncPairs)
	fmt.Printf("  hit-wait time (mean of runs):        %.0f%% below 6 ms, max %.1f ms (paper: 70%% < 6 ms, all < 17 ms)\n",
		100*sum.HitWait.FractionBelow(6), sum.HitWait.Max())
	fmt.Printf("  prefetch action time (mean of runs): %.1f–%.1f ms (paper: 3–31 ms)\n",
		sum.ActionTime.Min(), sum.ActionTime.Max())
	fmt.Printf("  overrun (mean of runs):              %.1f–%.1f ms (paper: 1–25 ms)\n",
		sum.Overrun.Min(), sum.Overrun.Max())
	fmt.Printf("  fuzzy relationships (Pearson r):     exec~read %.2f, exec~hit %.2f, read~hit-wait %.2f\n",
		sum.CorrExecVsRead, sum.CorrExecVsHit, sum.CorrReadVsHitWait)

	fmt.Println("\nper-pattern breakdown (§V-F):")
	for _, kind := range rapid.PatternKinds {
		g := s.ByPattern()[kind]
		fmt.Printf("  %-4s median exec reduction %+6.1f%%, read reduction %+6.1f%%, hit %.3f\n",
			kind, g.Exec.Median(), g.Read.Median(), g.Hit.Median())
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "suite:", err)
			os.Exit(1)
		}
		figs := map[string]*rapid.Figure{
			"fig03_read_time.csv":     s.Fig3ReadTime(),
			"fig04_hit_ratio_cdf.csv": s.Fig4HitRatioCDF(),
			"fig05_hit_kinds_cdf.csv": s.Fig5HitKindsCDF(),
			"fig06_read_vs_wait.csv":  s.Fig6ReadVsHitWait(),
			"fig07_disk_response.csv": s.Fig7DiskResponse(),
			"fig08_total_time.csv":    s.Fig8TotalTime(),
			"fig09_sync_time.csv":     s.Fig9SyncTime(),
			"fig10_exec_vs_read.csv":  s.Fig10ExecVsRead(),
			"fig11_exec_vs_hit.csv":   s.Fig11ExecVsHitRatio(),
		}
		for name, fig := range figs {
			path := filepath.Join(*csvDir, name)
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "suite:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\nwrote %d CSV files to %s\n", len(figs), *csvDir)
	}

	writeMemProfile(*memProf)
}

// runCluster executes the cluster-scale study (-scale cluster): the
// 100k-1M node sweep on the compact engine, the disk-contention knee
// study, and the S1-S4 claim checks — or, with -chaos, the chaos
// study's C1-C5 checks plus one chaos cell per size. Runs are strictly
// serial — each cell's bytes/node is a whole-process heap measurement.
func runCluster(nodesCSV, csvDir string, telemetry, chaos, progress bool, memProf string) {
	opts := rapid.ScaleOptions{Telemetry: telemetry}
	if nodesCSV != "" {
		for _, tok := range strings.Split(nodesCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "suite: bad -scale-nodes entry %q\n", tok)
				os.Exit(1)
			}
			opts.Nodes = append(opts.Nodes, n)
		}
	}
	if progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rcell %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	sizes := opts.Nodes
	if len(sizes) == 0 {
		sizes = rapid.DefaultScaleSizes()
	}
	study, verify := "cluster-scale", rapid.VerifyScaleClaims
	if chaos {
		study, verify = "cluster-chaos", rapid.VerifyChaosClaims
	}
	fmt.Printf("running the %s study at %v nodes...\n\n", study, sizes)
	v, sweep := verify(opts)
	fmt.Println(sweep.Table())
	fmt.Println(v.Report())

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "suite:", err)
			os.Exit(1)
		}
		figs := map[string]*rapid.Figure{
			"scale_total_time.csv":     sweep.TotalTime,
			"scale_improvement.csv":    sweep.Improvement,
			"scale_throughput.csv":     sweep.Throughput,
			"scale_bytes_per_node.csv": sweep.BytesPerNode,
			"scale_disk_knee.csv":      sweep.DiskKnee,
		}
		for name, fig := range figs {
			path := filepath.Join(csvDir, name)
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "suite:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\nwrote %d CSV files to %s\n", len(figs), csvDir)

		if sweep.Telemetry != nil {
			write := func(name string, fn func(io.Writer) error) {
				path := filepath.Join(csvDir, name)
				f, err := os.Create(path)
				if err == nil {
					err = fn(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "suite:", err)
					os.Exit(1)
				}
			}
			write("scale_timeseries.csv", sweep.Telemetry.WriteCSV)
			write("scale_timeseries.json", sweep.Telemetry.WriteJSON)
			if rec := sweep.SampledTrace; rec != nil {
				write("scale_sample.spans", func(w io.Writer) error {
					_, err := rec.WriteTo(w)
					return err
				})
				write("scale_sample.perfetto.json", rec.WritePerfetto)
			}
			fmt.Printf("telemetry: %d windows, sampled nodes %v -> %s\n",
				len(sweep.Telemetry.Windows), sweep.Telemetry.SampleNodes, csvDir)
		}
	}

	writeMemProfile(memProf)
	if failed := v.Failed(); len(failed) > 0 {
		os.Exit(1)
	}
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suite:", err)
		os.Exit(1)
	}
	runtime.GC() // settle retained memory before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "suite:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "suite:", err)
		os.Exit(1)
	}
}
