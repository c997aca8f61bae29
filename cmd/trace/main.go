// Command trace inspects the virtual-time traces that `rapid -trace`
// and `rapid -telemetry` record: trace-event JSON files (see
// internal/obs), which also open as written in ui.perfetto.dev. It
// turns "the total moved" into "which processor spent its time where":
// summarize the idle-time accounting, render an ASCII timeline, check
// the file's structure, diff two runs' accounting (prefetch on vs.
// off, faulted vs. clean), and chart a telemetry run's windows. A
// telemetry file is a trace like any other: its spans are the sampled
// nodes', and its counters are the run's totals.
//
// Subcommands:
//
//	trace summary run.json                     counters + idle-time accounting
//	trace timeline [filters] run.json          ASCII Gantt timeline
//	trace dump    [filters] run.json           filtered span listing
//	trace verify  run.json                     read the trace and check its nesting
//	trace diff    a.json b.json                accounting diff (b relative to a)
//	trace timeseries telemetry.json            sparklines + per-window table of a
//	                                           telemetry trace's windows
//
// Examples:
//
//	rapid -pattern gw -sync each -prefetch -trace pf.json
//	rapid -pattern gw -sync each -trace nopf.json
//	trace diff nopf.json pf.json
//	trace timeline -proc 3 -to 200000 pf.json
//	rapid -pattern gw -sync each -prefetch -telemetry tel.json -sample 4
//	trace timeseries tel.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

// run is the whole command, factored out of main so tests can drive it
// with arbitrary arguments and capture its output.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: trace {summary|timeline|dump|verify|diff|timeseries} [flags] [files]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "timeseries":
		return cmdTimeseries(rest, stdout, stderr)
	case "summary":
		return cmdSummary(rest, stdout, stderr)
	case "timeline":
		return cmdTimeline(rest, stdout, stderr)
	case "dump":
		return cmdDump(rest, stdout, stderr)
	case "verify":
		return cmdVerify(rest, stdout, stderr)
	case "diff":
		return cmdDiff(rest, stdout, stderr)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

func loadTrace(path string) (*obs.Recorder, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.Read(f)
}

// parseTrace parses the args of a subcommand that takes one trace file
// and reads that file.
func parseTrace(fs *flag.FlagSet, args []string) (*obs.Recorder, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, fmt.Errorf("%s: want exactly one trace file", strings.TrimPrefix(fs.Name(), "trace "))
	}
	return loadTrace(fs.Arg(0))
}

func cmdSummary(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rec, err := parseTrace(fs, args)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%d spans on %d tracks, horizon %d us\n",
		len(rec.Spans), len(rec.Tracks()), rec.End())
	fmt.Fprintln(stdout, "counters:")
	for c, v := range rec.Counters {
		if v != 0 {
			fmt.Fprintf(stdout, "  %-26s %12d\n", obs.Counter(c), v)
		}
	}
	fmt.Fprintln(stdout, "idle-time accounting (us):")
	fmt.Fprint(stdout, rec.Account().Report())
	return nil
}

// spanFilters is the shared filter flag set for timeline and dump.
type spanFilters struct {
	proc, disk int
	span       string
	from, to   int64
	width      int
}

func (sf *spanFilters) register(fs *flag.FlagSet) {
	fs.IntVar(&sf.proc, "proc", -1, "only this processor's track")
	fs.IntVar(&sf.disk, "disk", -1, "only this disk's track")
	fs.StringVar(&sf.span, "span", "", "only spans of this kind (e.g. demand-wait)")
	fs.Int64Var(&sf.from, "from", 0, "window start, virtual us")
	fs.Int64Var(&sf.to, "to", 0, "window end, virtual us (0 = trace end)")
	fs.IntVar(&sf.width, "width", 96, "timeline columns")
}

// tracks converts -proc/-disk into a track list (nil = all tracks).
func (sf *spanFilters) tracks() []obs.Track {
	var ts []obs.Track
	if sf.proc >= 0 {
		ts = append(ts, obs.ProcTrack(sf.proc))
	}
	if sf.disk >= 0 {
		ts = append(ts, obs.DiskTrack(sf.disk))
	}
	return ts
}

func cmdTimeline(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sf spanFilters
	sf.register(fs)
	rec, err := parseTrace(fs, args)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rec.Timeline(obs.TimelineOptions{
		From: sf.from, To: sf.to, Tracks: sf.tracks(), Width: sf.width,
	}))
	return nil
}

func cmdDump(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace dump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sf spanFilters
	sf.register(fs)
	rec, err := parseTrace(fs, args)
	if err != nil {
		return err
	}
	var kind obs.SpanKind
	haveKind := false
	if sf.span != "" {
		kind, err = obs.ParseSpanKind(sf.span)
		if err != nil {
			return err
		}
		haveKind = true
	}
	to := sf.to
	if to <= 0 {
		to = rec.End()
	}
	want := sf.tracks()
	n := 0
	for _, s := range rec.Spans {
		if haveKind && s.Kind != kind {
			continue
		}
		if s.End <= sf.from || s.Start >= to {
			continue
		}
		if want != nil && !slices.Contains(want, s.Track) {
			continue
		}
		fmt.Fprintf(stdout, "%-8s %-15s %10d %10d %8d  block=%-6d arg=%d\n",
			s.Track, s.Kind, s.Start, s.End, s.Dur(), s.Block, s.Arg)
		n++
	}
	fmt.Fprintf(stdout, "%d spans\n", n)
	return nil
}

// cmdVerify reads a trace and checks the structure its viewer relies
// on: no span ends before it starts, and sync spans nest per track.
func cmdVerify(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rec, err := parseTrace(fs, args)
	if err != nil {
		return err
	}
	if err := rec.CheckNesting(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: ok: %d spans on %d tracks\n", fs.Arg(0), len(rec.Spans), len(rec.Tracks()))
	return nil
}

// cmdTimeseries renders the windowed series of a telemetry trace (the
// file `rapid -telemetry` or `suite -scale cluster -telemetry` writes)
// as sparklines over the whole run plus a per-window table — the
// at-a-glance view that locates a contention knee or a rate collapse
// inside a cluster-scale run without opening a spreadsheet.
func cmdTimeseries(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace timeseries", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		width = fs.Int("width", 72, "sparkline columns")
		rows  = fs.Int("n", 24, "table rows (0 = all windows; a longer run is downsampled by striding)")
	)
	rec, err := parseTrace(fs, args)
	if err != nil {
		return err
	}
	windows := rec.Windows
	n := len(windows)
	if n == 0 {
		return fmt.Errorf("timeseries: %s holds no telemetry windows", fs.Arg(0))
	}
	rate := func(count int64) float64 { return float64(count) * 1e6 / float64(rec.Width) }
	fmt.Fprintf(stdout, "%d windows of %.1f ms virtual time (%.1f ms total)\n",
		n, float64(rec.Width)/1000, float64(rec.Width)*float64(n)/1000)
	var sampled []int
	for _, t := range rec.Tracks() {
		if t.Kind == obs.TrackProc {
			sampled = append(sampled, t.ID)
		}
	}
	if len(sampled) > 0 {
		fmt.Fprintf(stdout, "sampled nodes: %v\n", sampled)
	}

	series := func(f func(w *obs.Window) float64) []float64 {
		vals := make([]float64, n)
		for i := range windows {
			vals[i] = f(&windows[i])
		}
		return vals
	}
	spark := func(label string, vals []float64) {
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(stdout, "  %-18s %s  [%.3g .. %.3g]\n", label, metrics.Sparkline(vals, *width), lo, hi)
	}
	// Fault columns appear only when the run injected anything, so
	// fault-free series render exactly as they did pre-chaos. The
	// totals are the windows' sums.
	c := &rec.Counters
	faultActivity := c[obs.CtrFaultsInjected] + c[obs.CtrReadRetries] +
		c[obs.CtrNodeStalls] + c[obs.CtrQuorumReleases]
	spark("events/sec", series(func(w *obs.Window) float64 {
		return rate(w.Ctrs[obs.CtrKernelEvents])
	}))
	spark("hit rate", series(func(w *obs.Window) float64 {
		if r := w.HitRate(); r >= 0 {
			return r
		}
		return 0
	}))
	spark("prefetch/sec", series(func(w *obs.Window) float64 {
		return rate(w.Ctrs[obs.CtrCachePrefetchesIssued])
	}))
	spark("demand wait µs", series(func(w *obs.Window) float64 {
		return float64(w.Dur[obs.SpanDemandWait])
	}))
	spark("disk queue p95 µs", series(func(w *obs.Window) float64 {
		return float64(w.Quantile(obs.SpanDiskQueue, 0.95))
	}))
	if faultActivity > 0 {
		spark("faults/sec", series(func(w *obs.Window) float64 {
			return rate(w.Ctrs[obs.CtrFaultsInjected])
		}))
		spark("retries/sec", series(func(w *obs.Window) float64 {
			return rate(w.Ctrs[obs.CtrReadRetries])
		}))
	}

	stride := 1
	if *rows > 0 && n > *rows {
		stride = (n + *rows - 1) / *rows
	}
	header := []string{
		"window", "start ms", "events/s", "hit", "pf/s",
		"demand ms", "sync ms", "queue p95 ms"}
	if faultActivity > 0 {
		header = append(header, "faults", "retries", "stalls", "quorum")
	}
	tb := &metrics.Table{Header: header}
	for i := 0; i < n; i += stride {
		w := &windows[i]
		hit := "-"
		if r := w.HitRate(); r >= 0 {
			hit = fmt.Sprintf("%.3f", r)
		}
		row := []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.1f", float64(int64(i)*rec.Width)/1000),
			fmt.Sprintf("%.0f", rate(w.Ctrs[obs.CtrKernelEvents])),
			hit,
			fmt.Sprintf("%.0f", rate(w.Ctrs[obs.CtrCachePrefetchesIssued])),
			fmt.Sprintf("%.1f", float64(w.Dur[obs.SpanDemandWait])/1000),
			fmt.Sprintf("%.1f", float64(w.Dur[obs.SpanSyncWait])/1000),
			fmt.Sprintf("%.2f", float64(w.Quantile(obs.SpanDiskQueue, 0.95))/1000),
		}
		if faultActivity > 0 {
			row = append(row,
				fmt.Sprintf("%d", w.Ctrs[obs.CtrFaultsInjected]),
				fmt.Sprintf("%d", w.Ctrs[obs.CtrReadRetries]),
				fmt.Sprintf("%d", w.Ctrs[obs.CtrNodeStalls]),
				fmt.Sprintf("%d", w.Ctrs[obs.CtrQuorumReleases]),
			)
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(stdout, tb.String())
	if stride > 1 {
		fmt.Fprintf(stdout, "(every %dth window of %d; -n 0 for all)\n", stride, n)
	}
	return nil
}

func cmdDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two trace files")
	}
	a, err := loadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "idle-time accounting: %s -> %s (total us across procs)\n", fs.Arg(0), fs.Arg(1))
	fmt.Fprint(stdout, obs.Diff(a.Account(), b.Account(), "a", "b"))
	return nil
}
