// Command rapid runs one RAPID Transit testbed experiment and prints
// its measurements, optionally recording the run as a trace-event JSON
// file that cmd/trace reads and ui.perfetto.dev opens: either its full
// span trace (-trace, with the off-line access analysis under
// -analyze), or its windowed telemetry (-telemetry), which holds the
// windows, the spans of -sample K seed-hashed nodes and the counter
// totals.
//
// Examples:
//
//	rapid -pattern gw -sync each -prefetch
//	rapid -pattern lfp -iobound -prefetch -compare
//	rapid -pattern gw -prefetch -trace gw.json -analyze
//	rapid -pattern gw -prefetch -telemetry tel.json -sample 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	rapid "repro"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
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
		minPF       = msVar(fs, "minpf", 0, "minimum prefetch time in `ms`")
		buffers     = fs.Int("buffers", 3, "prefetch buffers per process")
		ruSet       = fs.Int("ruset", 1, "recently-used set size per process")
		perNode     = fs.Bool("pernode", false, "strict per-node prefetch buffer limits")
		seed        = fs.Uint64("seed", 1, "random seed")
		faultRate   = fs.Float64("fault-rate", 0, "per-request transient read-error probability [0,1)")
		faultSeed   = fs.Uint64("fault-seed", 1, "seed for all fault draws")
		diskKillAt  = msVar(fs, "disk-kill-at", 0, "kill disk 0 at this virtual time in `ms` (0 = never)")
		procSlow    = fs.Float64("proc-slow", 0, "slow the last processor by this factor (0 or 1 = healthy)")
		procKillAt  = msVar(fs, "proc-kill-at", 0, "kill processor 0 at this virtual time in `ms` (0 = never)")
		barrierTO   = msVar(fs, "barrier-timeout", 0, "barrier quorum-release timeout in `ms` (0 = wait forever)")
		racks       = fs.Int("racks", 0, "split disks and processors into this many named failure domains rack0..rackN-1 (0 = no domains)")
		rackKill    = fs.String("rack-kill", "", "kill every disk and processor of this rack at -rack-kill-at")
		rackKillAt  = msVar(fs, "rack-kill-at", 0, "virtual time of the correlated rack kill in `ms`")
		rackStorm   = fs.String("rack-storm", "", "subject this rack's disks to a latency storm")
		stormAt     = msVar(fs, "rack-storm-at", 0, "storm onset in `ms` of virtual time")
		stormFor    = msVar(fs, "rack-storm-for", 0, "storm duration in `ms` (0 disables the storm)")
		stormFactor = fs.Float64("rack-storm-factor", 3, "disk service-time multiplier during the storm")
		stormJitter = msVar(fs, "rack-storm-jitter", 0, "per-disk storm onset jitter bound in `ms`")
		rackStrag   = fs.String("rack-straggle", "", "spread compute stragglers across this rack's processors")
		stragFactor = fs.Float64("rack-straggle-factor", 2, "compute slowdown of an affected processor")
		stragRate   = fs.Float64("rack-straggle-rate", 0, "fraction of the rack's processors affected [0,1] (0 disables the spread)")
		traceFile   = fs.String("trace", "", "write the span trace (trace-event JSON) to this file")
		analyze     = fs.Bool("analyze", false, "print the off-line access analysis of the span trace")
		timeline    = fs.Bool("timeline", false, "print the ASCII span timeline")
		telFile     = fs.String("telemetry", "", "write the windowed telemetry, the sampled nodes' spans and the counter totals (trace-event JSON) to this file")
		telWindow   = msVar(fs, "telemetry-window", 100, "telemetry window width in `ms` of virtual time, at least 1")
		sampleK     = fs.Int("sample", 0, "add the spans of K seed-hashed nodes to the -telemetry file (0 = none)")
		perProcOut  = fs.Bool("procstats", false, "print per-process statistics")
		hist        = fs.Bool("hist", false, "print the block read time distribution")
		asJSON      = fs.Bool("json", false, "emit the full result as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := refuseDropped(fs, *compare, *asJSON); err != nil {
		return err
	}
	if err := refuseOrphans(fs); err != nil {
		return err
	}
	// A window under 1 ms keeps a window per few microseconds of the
	// run, and one that rounds to 0 would silently take the default.
	if *telWindow < rapid.Millisecond {
		return fmt.Errorf("invalid value %v for flag -telemetry-window: want at least 1 ms", fs.Lookup("telemetry-window").Value)
	}
	if *sampleK < 0 {
		return fmt.Errorf("invalid value %d for flag -sample: want a node count of 0 or more", *sampleK)
	}
	// SplitDomains leaves all but the last of more racks than
	// processors empty.
	if *racks < 0 || *racks > *procs {
		return fmt.Errorf("invalid value %d for flag -racks: want 0 to -procs (%d) racks", *racks, *procs)
	}
	if err := (rapid.NodeFaultConfig{StragglerFactor: *procSlow}).Validate(); err != nil {
		return fmt.Errorf("invalid value %v for flag -proc-slow: %v", *procSlow, err)
	}
	compute, err := millis(*computeMS)
	if err != nil && *computeMS != -1 { // -1 keeps the paper default
		return fmt.Errorf("invalid value %v for flag -compute: %v", *computeMS, err)
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
		cfg.MinPrefetchTime = *minPF
		cfg.PrefetchBuffersPerProc = *buffers
		cfg.RUSetSize = *ruSet
		cfg.PerNodePrefetchLimit = *perNode
		cfg.Seed = *seed
		cfg.Fault = rapid.FaultConfig{
			Seed:          *faultSeed,
			ReadErrorRate: *faultRate,
			KillAt:        *diskKillAt,
		}
		nf := rapid.NodeFaultConfig{
			Seed:           *faultSeed,
			KillAt:         *procKillAt,
			BarrierTimeout: *barrierTO,
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
				KillAt:          *rackKillAt,
				StormDomain:     *rackStorm,
				StormAt:         *stormAt,
				StormFor:        *stormFor,
				StormFactor:     *stormFactor,
				StormJitter:     *stormJitter,
				StragglerDomain: *rackStrag,
				StragglerFactor: *stragFactor,
				StragglerRate:   *stragRate,
			}
		}
		if *ioBound {
			cfg.ComputeMean = 0
		} else if *computeMS != -1 {
			cfg.ComputeMean = compute
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
	var spans *obs.Recorder
	if *traceFile != "" || *analyze || *timeline {
		spans = obs.NewRecorder()
		cfg.Obs = spans
	}
	var tel *telemetry.Sink
	if *telFile != "" {
		if spans != nil {
			return fmt.Errorf("telemetry flags cannot be combined with the full-trace flags (-trace, -analyze, -timeline); the run has one sink")
		}
		tel = telemetry.New(telemetry.Config{
			Window:     int64(*telWindow),
			SampleK:    *sampleK,
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
	if spans != nil {
		if *traceFile != "" {
			if err := writeFile(*traceFile, spans); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace: %d spans -> %s\n", len(spans.Spans), *traceFile)
		}
		if *analyze {
			fmt.Fprint(stdout, obs.Analyze(spans))
		}
		if *timeline {
			fmt.Fprint(stdout, spans.Timeline(obs.TimelineOptions{}))
		}
	}
	if tel != nil {
		rec := tel.Recorder()
		if err := writeFile(*telFile, rec); err != nil {
			return err
		}
		sample := ""
		if ids := tel.SampleIDs(); len(ids) > 0 {
			sample = fmt.Sprintf(", sampled nodes %v (%d spans)", ids, len(rec.Spans))
		}
		fmt.Fprintf(stdout, "telemetry: %d windows%s -> %s\n", len(rec.Windows), sample, *telFile)
	}
	return nil
}

// reportFlags are the flags that add a sink, an output file or a report
// to the printed result.
var reportFlags = map[string]bool{
	"trace": true, "analyze": true, "timeline": true,
	"telemetry": true, "telemetry-window": true, "sample": true,
	"procstats": true, "hist": true,
}

// refuseDropped rejects the report flags a run in -compare mode (two
// results and a comparison) or -json mode (one encoded result) would
// drop: neither attaches a sink or prints anything but its results.
// -compare also drops -json.
func refuseDropped(fs *flag.FlagSet, compare, asJSON bool) error {
	if !compare && !asJSON {
		return nil
	}
	var dropped []string
	fs.Visit(func(f *flag.Flag) {
		if reportFlags[f.Name] || compare && f.Name == "json" {
			dropped = append(dropped, "-"+f.Name)
		}
	})
	if len(dropped) == 0 {
		return nil
	}
	mode := "-json"
	if compare {
		mode = "-compare"
	}
	return fmt.Errorf("%s prints only its results and cannot be combined with %s",
		mode, strings.Join(dropped, ", "))
}

// needs maps each flag a run uses only together with others to those
// others: the telemetry refinements need -telemetry, and a rack event
// needs -racks and both its rack and its time (or rate), as a kill
// with no -rack-kill-at never fires.
var needs = map[string][]string{
	"sample": {"telemetry"}, "telemetry-window": {"telemetry"},
	"rack-kill":     {"racks", "rack-kill-at"},
	"rack-kill-at":  {"rack-kill"},
	"rack-storm":    {"racks", "rack-storm-for"},
	"rack-storm-at": {"rack-storm"}, "rack-storm-for": {"rack-storm"},
	"rack-storm-factor": {"rack-storm"}, "rack-storm-jitter": {"rack-storm"},
	"rack-straggle":        {"racks", "rack-straggle-rate"},
	"rack-straggle-factor": {"rack-straggle"}, "rack-straggle-rate": {"rack-straggle"},
}

// refuseOrphans rejects a flag given while a flag it needs is off
// (unset, or at its default as with -racks 0): the run would ignore it.
func refuseOrphans(fs *flag.FlagSet) error {
	on := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { on[f.Name] = f.Value.String() != f.DefValue })
	var orphans []string
	fs.Visit(func(f *flag.Flag) {
		for _, base := range needs[f.Name] {
			if !on[base] {
				orphans = append(orphans, fmt.Sprintf("-%s without -%s", f.Name, base))
			}
		}
	})
	if len(orphans) > 0 {
		return fmt.Errorf("a run would ignore %s", strings.Join(orphans, ", "))
	}
	return nil
}

// millis converts ms to a Duration, refusing a negative, NaN, infinite
// or out-of-range value: sim.Millis panics on the first and wraps the
// last past the virtual clock.
func millis(ms float64) (rapid.Duration, error) {
	if !(ms >= 0 && ms*float64(rapid.Millisecond) < math.MaxInt64) {
		return 0, fmt.Errorf("want milliseconds in [0, %g)", math.MaxInt64/float64(rapid.Millisecond))
	}
	return rapid.Millis(ms), nil
}

// msValue is a millisecond flag's value. Its Set converts through
// millis, so fs.Parse reports a value no run can take as a usage error
// naming the flag.
type msValue rapid.Duration

func (v *msValue) String() string {
	return strconv.FormatFloat(rapid.Duration(*v).Millis(), 'g', -1, 64)
}

func (v *msValue) Set(s string) error {
	ms, err := strconv.ParseFloat(s, 64)
	if err == nil {
		var d rapid.Duration
		d, err = millis(ms)
		*v = msValue(d)
	}
	return err
}

// msVar defines a millisecond flag on fs with a default of def ms.
func msVar(fs *flag.FlagSet, name string, def float64, usage string) *rapid.Duration {
	d := rapid.Millis(def)
	fs.Var((*msValue)(&d), name, usage)
	return &d
}

// writeFile creates path, writes src into it, and closes it, returning
// the first error.
func writeFile(path string, src io.WriterTo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := src.WriteTo(f); err != nil {
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
