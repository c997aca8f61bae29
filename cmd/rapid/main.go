// Command rapid runs one RAPID Transit testbed experiment and prints
// its measurements, optionally recording the access trace for off-line
// analysis.
//
// Examples:
//
//	rapid -pattern gw -sync each -prefetch
//	rapid -pattern lfp -iobound -prefetch -compare
//	rapid -pattern gw -prefetch -trace /tmp/gw.trace -analyze
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	rapid "repro"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rapid:", err)
		os.Exit(1)
	}
}

// run is the whole command, factored out of main so tests can drive it
// with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rapid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		patternName = fs.String("pattern", "gw", "access pattern: lfp, lrp, lw, gfp, grp, gw")
		syncName    = fs.String("sync", "none", "sync style: each, total, portion, none")
		prefetch    = fs.Bool("prefetch", false, "enable prefetching")
		predictor   = fs.String("predictor", "oracle", "prefetch candidate source: oracle, obl, seq, gaps")
		compare     = fs.Bool("compare", false, "run with AND without prefetching and compare")
		ioBound     = fs.Bool("iobound", false, "no computation per block (I/O bound)")
		computeMS   = fs.Float64("compute", -1, "mean computation per block in ms (-1 = paper default)")
		procs       = fs.Int("procs", 20, "number of processors (and disks)")
		blocks      = fs.Int("blocks", 2000, "total blocks read (global patterns)")
		perProc     = fs.Int("perproc", 100, "blocks read per process (local patterns)")
		lead        = fs.Int("lead", 0, "minimum prefetch lead in blocks")
		minPF       = fs.Float64("minpf", 0, "minimum prefetch time in ms")
		buffers     = fs.Int("buffers", 3, "prefetch buffers per process")
		ruSet       = fs.Int("ruset", 1, "recently-used set size per process")
		perNode     = fs.Bool("pernode", false, "strict per-node prefetch buffer limits")
		seed        = fs.Uint64("seed", 1, "random seed")
		faultRate   = fs.Float64("fault-rate", 0, "per-request transient read-error probability [0,1)")
		faultSeed   = fs.Uint64("fault-seed", 1, "seed for all fault draws")
		killAtMS    = fs.Float64("disk-kill-at", 0, "kill disk 0 at this virtual time in ms (0 = never)")
		procSlow    = fs.Float64("proc-slow", 0, "slow the last processor by this factor (0 or 1 = healthy)")
		procKillMS  = fs.Float64("proc-kill-at", 0, "kill processor 0 at this virtual time in ms (0 = never)")
		barrierTO   = fs.Float64("barrier-timeout", 0, "barrier quorum-release timeout in ms (0 = wait forever)")
		racks       = fs.Int("racks", 0, "split disks and processors into this many named failure domains rack0..rackN-1 (0 = no domains)")
		rackKill    = fs.String("rack-kill", "", "kill every disk and processor of this rack at -rack-kill-at")
		rackKillMS  = fs.Float64("rack-kill-at", 0, "virtual time of the correlated rack kill in ms")
		rackStorm   = fs.String("rack-storm", "", "subject this rack's disks to a latency storm")
		stormAtMS   = fs.Float64("rack-storm-at", 0, "storm onset in ms of virtual time")
		stormForMS  = fs.Float64("rack-storm-for", 0, "storm duration in ms (0 disables the storm)")
		stormFactor = fs.Float64("rack-storm-factor", 3, "disk service-time multiplier during the storm")
		stormJitMS  = fs.Float64("rack-storm-jitter", 0, "per-disk storm onset jitter bound in ms")
		rackStrag   = fs.String("rack-straggle", "", "spread compute stragglers across this rack's processors")
		stragFactor = fs.Float64("rack-straggle-factor", 2, "compute slowdown of an affected processor")
		stragRate   = fs.Float64("rack-straggle-rate", 0, "fraction of the rack's processors affected [0,1] (0 disables the spread)")
		traceFile   = fs.String("trace", "", "write the access trace to this file")
		analyze     = fs.Bool("analyze", false, "print off-line trace analysis")
		spansFile   = fs.String("trace-out", "", "write the observability span trace to this file")
		perfFile    = fs.String("perfetto", "", "write a Perfetto trace-event JSON to this file")
		timeline    = fs.Bool("timeline", false, "print the ASCII span timeline")
		telJSON     = fs.String("telemetry", "", "write the windowed telemetry snapshot JSON to this file")
		telCSV      = fs.String("telemetry-csv", "", "write the windowed telemetry time series CSV to this file")
		telWindow   = fs.Float64("telemetry-window", 100, "telemetry window width in ms of virtual time")
		sampleK     = fs.Int("sample", 0, "sample K seed-hashed nodes at full fidelity (0 = 16 when a sample output is set)")
		sampleOut   = fs.String("sample-out", "", "write the sampled nodes' span trace to this file")
		samplePerf  = fs.String("sample-perfetto", "", "write the sampled nodes' Perfetto trace to this file")
		perProcOut  = fs.Bool("procstats", false, "print per-process statistics")
		hist        = fs.Bool("hist", false, "print the block read time distribution")
		asJSON      = fs.Bool("json", false, "emit the full result as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := rapid.ParsePatternKind(*patternName)
	if err != nil {
		return err
	}
	style, err := rapid.ParseSyncStyle(*syncName)
	if err != nil {
		return err
	}
	pred, err := rapid.ParsePredictorKind(*predictor)
	if err != nil {
		return err
	}

	build := func(pf bool) rapid.Config {
		cfg := rapid.DefaultConfig(kind)
		cfg.Procs = *procs
		cfg.Disks = *procs
		cfg.Pattern.Procs = *procs
		cfg.Pattern.TotalBlocks = *blocks
		cfg.Pattern.BlocksPerProc = *perProc
		cfg.Pattern.Seed = *seed
		cfg.Sync = style
		cfg.SyncEveryTotal = totalReads(kind, *blocks, *perProc, *procs) / 10
		cfg.Prefetch = pf
		cfg.Predictor = pred
		cfg.Lead = *lead
		cfg.MinPrefetchTime = rapid.Millis(*minPF)
		cfg.PrefetchBuffersPerProc = *buffers
		cfg.RUSetSize = *ruSet
		cfg.PerNodePrefetchLimit = *perNode
		cfg.Seed = *seed
		cfg.Fault = rapid.FaultConfig{
			Seed:          *faultSeed,
			ReadErrorRate: *faultRate,
			KillAt:        rapid.Millis(*killAtMS),
		}
		nf := rapid.NodeFaultConfig{
			Seed:           *faultSeed,
			KillAt:         rapid.Millis(*procKillMS),
			BarrierTimeout: rapid.Millis(*barrierTO),
		}
		if *procSlow > 1 {
			nf.StragglerFactor = *procSlow
			nf.StragglerNode = *procs - 1
		}
		if nf.Enabled() {
			cfg.NodeFault = nf
		}
		if *racks > 0 {
			cfg.Domain = rapid.DomainConfig{
				Seed:            *faultSeed,
				Domains:         rapid.SplitDomains("rack", *procs, *procs, *racks),
				KillDomain:      *rackKill,
				KillAt:          rapid.Millis(*rackKillMS),
				StormDomain:     *rackStorm,
				StormAt:         rapid.Millis(*stormAtMS),
				StormFor:        rapid.Millis(*stormForMS),
				StormFactor:     *stormFactor,
				StormJitter:     rapid.Millis(*stormJitMS),
				StragglerDomain: *rackStrag,
				StragglerFactor: *stragFactor,
				StragglerRate:   *stragRate,
			}
		}
		if *ioBound {
			cfg.ComputeMean = 0
		} else if *computeMS >= 0 {
			cfg.ComputeMean = rapid.Millis(*computeMS)
		}
		return cfg
	}

	if *compare {
		base, err := rapid.Run(build(false))
		if err != nil {
			return err
		}
		pf, err := rapid.Run(build(true))
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, base)
		fmt.Fprint(stdout, pf)
		fmt.Fprintf(stdout, "prefetching: total time %+.1f%%, read time %+.1f%%, hit ratio %.3f -> %.3f\n",
			-rapid.PercentReduction(base.TotalTimeMillis(), pf.TotalTimeMillis()),
			-rapid.PercentReduction(base.ReadTime.Mean(), pf.ReadTime.Mean()),
			base.HitRatio(), pf.HitRatio())
		return nil
	}

	cfg := build(*prefetch)
	var rec *trace.Recorder
	if *traceFile != "" || *analyze {
		rec = trace.NewRecorder()
		cfg.Trace = rec.Hook()
	}
	var spans *obs.Recorder
	if *spansFile != "" || *perfFile != "" || *timeline {
		spans = obs.NewRecorder()
		cfg.Obs = spans
	}
	var tel *telemetry.Sink
	if *telJSON != "" || *telCSV != "" || *sampleK > 0 || *sampleOut != "" || *samplePerf != "" {
		if spans != nil {
			return fmt.Errorf("telemetry flags cannot be combined with the full-trace flags (-trace-out, -perfetto, -timeline); the run has one sink")
		}
		k := *sampleK
		if k == 0 && (*sampleOut != "" || *samplePerf != "") {
			k = 16
		}
		tel = telemetry.New(telemetry.Config{
			Window:     int64(rapid.Millis(*telWindow)),
			SampleK:    k,
			Nodes:      *procs,
			SampleSeed: *seed,
		})
		cfg.Obs = tel
	}
	res, err := rapid.Run(cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprint(stdout, res)
	if *hist {
		fmt.Fprintln(stdout, "block read time distribution (ms):")
		fmt.Fprint(stdout, res.ReadTimeHist.Render(48))
	}
	if *perProcOut {
		fmt.Fprintln(stdout, "per-process:")
		for _, ps := range res.PerProc {
			fmt.Fprintf(stdout, "  proc %2d: %4d reads, read %7.2f ms, sync %7.2f ms, %d prefetches (%d attempts), finish %v\n",
				ps.Node, ps.Reads, ps.ReadTime.Mean(), ps.SyncWait.Mean(),
				ps.PrefetchesIssued, ps.PrefetchAttempts, ps.Finish)
		}
	}
	if rec != nil {
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				return err
			}
			if _, err := rec.WriteTo(f); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace: %d events -> %s\n", rec.Len(), *traceFile)
		}
		if *analyze {
			fmt.Fprint(stdout, trace.Analyze(rec.Events()))
		}
	}
	if spans != nil {
		if *spansFile != "" {
			f, err := os.Create(*spansFile)
			if err != nil {
				return err
			}
			if _, err := spans.WriteTo(f); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "spans: %d -> %s\n", len(spans.Spans), *spansFile)
		}
		if *perfFile != "" {
			f, err := os.Create(*perfFile)
			if err != nil {
				return err
			}
			if err := spans.WritePerfetto(f); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "perfetto: %d spans -> %s\n", len(spans.Spans), *perfFile)
		}
		if *timeline {
			fmt.Fprint(stdout, spans.Timeline(obs.TimelineOptions{}))
		}
	}
	if tel != nil {
		sn := tel.Snapshot()
		if *telJSON != "" {
			if err := writeFile(*telJSON, sn.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "telemetry: %d windows -> %s\n", len(sn.Windows), *telJSON)
		}
		if *telCSV != "" {
			if err := writeFile(*telCSV, sn.WriteCSV); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "telemetry: %d windows -> %s\n", len(sn.Windows), *telCSV)
		}
		if rec := tel.Sampled(); rec != nil {
			if *sampleOut != "" {
				if err := writeFile(*sampleOut, func(w io.Writer) error {
					_, err := rec.WriteTo(w)
					return err
				}); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "sample: nodes %v, %d spans -> %s\n", tel.SampleIDs(), len(rec.Spans), *sampleOut)
			}
			if *samplePerf != "" {
				if err := writeFile(*samplePerf, rec.WritePerfetto); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "sample: nodes %v, %d spans -> %s\n", tel.SampleIDs(), len(rec.Spans), *samplePerf)
			}
		}
	}
	return nil
}

// writeFile creates path, streams write into it, and closes it,
// returning the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func totalReads(kind rapid.PatternKind, blocks, perProc, procs int) int {
	if kind.Local() {
		return perProc * procs
	}
	return blocks
}
