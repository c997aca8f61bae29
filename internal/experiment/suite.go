// Package experiment reproduces the paper's evaluation (§IV–V): the
// full factorial suite of access patterns × synchronization styles ×
// I/O intensities, run with and without prefetching, plus the parameter
// sweeps behind Figs. 12–16 and the §V-D/§V-F experiments. Each figure
// of the paper has a builder returning a metrics.Figure with the same
// axes and series.
package experiment

import (
	"fmt"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Options scales the experiments. The zero value is not useful; use
// PaperScale or TestScale.
type Options struct {
	// Procs is the number of processors (and disks).
	Procs int
	// TotalBlocks is the total reads for global patterns.
	TotalBlocks int
	// BlocksPerProc is the per-process reads for local patterns.
	BlocksPerProc int
	// LeadLocalReads is BlocksPerProc for the prefetch-lead experiments
	// (the paper uses 2000 so that leads up to 90 are meaningful).
	LeadLocalReads int
	// SyncEveryPerProc and SyncTotalDivisor parameterize the sync
	// styles: sync every N per process, and every TotalReads/Divisor in
	// total (the paper: every 10 per process, every 200 of 2000 total).
	SyncEveryPerProc int
	SyncTotalDivisor int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds how many independent simulations run concurrently
	// (every run is its own engine, so the batch is embarrassingly
	// parallel). Zero uses runtime.GOMAXPROCS; 1 forces the serial
	// reference path. Results are byte-identical for every value.
	Workers int
	// SimWorkers is ignored: every simulation runs on the serial
	// kernel. The field remains only so existing callers that set it
	// still compile.
	SimWorkers int
	// Progress, if non-nil, observes run completions across each batch
	// (see runner.Options.Progress).
	Progress func(done, total int)
	// Obs, if non-nil, is installed into every run's configuration (see
	// core.Config.Obs). With Workers != 1 the runs execute concurrently,
	// so the sink must be shareable — use obs.CounterSink, not a span
	// recorder.
	Obs obs.Sink
	// Audit, if positive, runs the runtime invariant auditor every Audit
	// of virtual time in every cell (see core.Config.AuditEvery). The
	// sweeps are pure observers, so audited results are identical to
	// unaudited ones; tests enable it to vouch for internal consistency.
	Audit sim.Duration
}

// runnerOpts maps the experiment options onto the execution engine.
func (o Options) runnerOpts() runner.Options {
	return runner.Options{Workers: o.Workers, Progress: o.Progress}
}

// runAll submits one batch of independent configurations to the worker
// pool and panics on any error, mirroring core.MustRun's contract. The
// returned slice is in configuration order regardless of worker count.
func runAll(o Options, cfgs []core.Config) []*core.Result {
	return runner.MustRunConfigs(o.runnerOpts(), cfgs)
}

// PaperScale returns the paper's full-size parameters (§IV-D).
func PaperScale() Options {
	return Options{
		Procs:            20,
		TotalBlocks:      2000,
		BlocksPerProc:    100,
		LeadLocalReads:   2000,
		SyncEveryPerProc: 10,
		SyncTotalDivisor: 10,
		Seed:             1,
	}
}

// TestScale returns a reduced configuration for fast tests: same
// structure, an order of magnitude less work.
func TestScale() Options {
	return Options{
		Procs:            8,
		TotalBlocks:      320,
		BlocksPerProc:    40,
		LeadLocalReads:   320,
		SyncEveryPerProc: 10,
		SyncTotalDivisor: 10,
		Seed:             1,
	}
}

// Config assembles the core.Config for one cell of the factorial suite.
func (o Options) Config(kind pattern.Kind, sync barrier.Style, ioBound, prefetch bool) core.Config {
	cfg := core.DefaultConfig(kind)
	cfg.Procs = o.Procs
	cfg.Disks = o.Procs
	cfg.Seed = o.Seed
	cfg.Pattern.Procs = o.Procs
	cfg.Pattern.Seed = o.Seed
	cfg.Pattern.TotalBlocks = o.TotalBlocks
	cfg.Pattern.BlocksPerProc = o.BlocksPerProc
	cfg.Sync = sync
	cfg.SyncEveryPerProc = o.SyncEveryPerProc
	cfg.SyncEveryTotal = o.totalReads(kind) / o.SyncTotalDivisor
	if ioBound {
		cfg.ComputeMean = 0
	}
	cfg.Prefetch = prefetch
	cfg.Obs = o.Obs
	cfg.AuditEvery = o.Audit
	return cfg
}

func (o Options) totalReads(kind pattern.Kind) int {
	if kind.Local() {
		return o.Procs * o.BlocksPerProc
	}
	return o.TotalBlocks
}

// Pair is one suite cell measured both without and with prefetching.
type Pair struct {
	Kind       pattern.Kind
	Sync       barrier.Style
	IOBound    bool
	NoPrefetch *core.Result
	Prefetch   *core.Result
}

// Label identifies the pair in tables.
func (p *Pair) Label() string {
	io := "balanced"
	if p.IOBound {
		io = "iobound"
	}
	return fmt.Sprintf("%s/%s/%s", p.Kind, p.Sync, io)
}

// ExecReduction is the percentage reduction in total execution time from
// prefetching (negative = slowdown).
func (p *Pair) ExecReduction() float64 {
	return metrics.PercentReduction(p.NoPrefetch.TotalTimeMillis(), p.Prefetch.TotalTimeMillis())
}

// ReadReduction is the percentage reduction in mean block read time.
func (p *Pair) ReadReduction() float64 {
	return metrics.PercentReduction(p.NoPrefetch.ReadTime.Mean(), p.Prefetch.ReadTime.Mean())
}

// Suite is the full factorial experiment: the paper's "uniform mix of
// the six file access patterns, the four synchronization styles, and two
// levels of I/O intensity" (§IV-B), with the lw × per-portion
// combination excluded (footnote 3).
type Suite struct {
	Opts  Options
	Pairs []*Pair
}

// Cells enumerates the suite's (pattern, sync, intensity) combinations.
func Cells() []struct {
	Kind    pattern.Kind
	Sync    barrier.Style
	IOBound bool
} {
	var cells []struct {
		Kind    pattern.Kind
		Sync    barrier.Style
		IOBound bool
	}
	for _, kind := range pattern.Kinds {
		for _, sync := range barrier.Styles {
			if kind == pattern.LW && sync == barrier.PerPortion {
				continue
			}
			for _, ioBound := range []bool{false, true} {
				cells = append(cells, struct {
					Kind    pattern.Kind
					Sync    barrier.Style
					IOBound bool
				}{kind, sync, ioBound})
			}
		}
	}
	return cells
}

// RunSuite executes every cell with and without prefetching. The cells
// are independent simulations, so they are submitted as one batch to
// the worker pool; pairs are assembled from the ordered results, so the
// suite is identical for any Workers value.
func RunSuite(opts Options) *Suite {
	cells := Cells()
	cfgs := make([]core.Config, 0, 2*len(cells))
	for _, cell := range cells {
		cfgs = append(cfgs,
			opts.Config(cell.Kind, cell.Sync, cell.IOBound, false),
			opts.Config(cell.Kind, cell.Sync, cell.IOBound, true))
	}
	results := runAll(opts, cfgs)
	s := &Suite{Opts: opts}
	for i, cell := range cells {
		s.Pairs = append(s.Pairs, &Pair{
			Kind: cell.Kind, Sync: cell.Sync, IOBound: cell.IOBound,
			NoPrefetch: results[2*i], Prefetch: results[2*i+1],
		})
	}
	return s
}

// Summary aggregates the suite into the quantities the paper reports in
// its text, for the EXPERIMENTS.md comparison.
type Summary struct {
	Experiments int
	// Percentage reductions from prefetching, one sample per pair.
	ReadReduction metrics.Sample
	ExecReduction metrics.Sample
	// Hit ratios across runs.
	HitRatioPrefetch   metrics.Sample
	HitRatioNoPrefetch metrics.Sample
	// Mean hit-wait time of each prefetching run, ms.
	HitWait metrics.Sample
	// Mean prefetch action / overrun times of each prefetching run, ms.
	ActionTime metrics.Sample
	Overrun    metrics.Sample
	// Counts.
	Slowdowns         int // pairs where prefetch increased total time
	SyncTimeIncreased int // pairs (with sync) where mean sync time grew
	SyncPairs         int
	// Correlations quantifying the paper's "fuzzy relationships":
	// exec-time reduction vs read-time reduction (Fig. 10), exec-time
	// reduction vs hit ratio (Fig. 11), and read time vs hit-wait time
	// (Fig. 6).
	CorrExecVsRead    float64
	CorrExecVsHit     float64
	CorrReadVsHitWait float64
}

// Summarize computes the Summary.
func (s *Suite) Summarize() *Summary {
	sum := &Summary{Experiments: len(s.Pairs)}
	var execR, readR, hitR, hwMeans, readMeans []float64
	for _, p := range s.Pairs {
		execR = append(execR, p.ExecReduction())
		readR = append(readR, p.ReadReduction())
		hitR = append(hitR, p.Prefetch.HitRatio())
		hwMeans = append(hwMeans, p.Prefetch.HitWaitAll.Mean())
		readMeans = append(readMeans, p.Prefetch.ReadTime.Mean())
		sum.ReadReduction.Add(p.ReadReduction())
		sum.ExecReduction.Add(p.ExecReduction())
		sum.HitRatioPrefetch.Add(p.Prefetch.HitRatio())
		sum.HitRatioNoPrefetch.Add(p.NoPrefetch.HitRatio())
		sum.HitWait.Add(p.Prefetch.HitWaitAll.Mean())
		sum.ActionTime.Add(p.Prefetch.PrefetchActionTime.Mean())
		sum.Overrun.Add(p.Prefetch.Overrun.Mean())
		if p.ExecReduction() < 0 {
			sum.Slowdowns++
		}
		if p.Sync != barrier.None {
			sum.SyncPairs++
			if p.Prefetch.SyncTime.Mean() > p.NoPrefetch.SyncTime.Mean() {
				sum.SyncTimeIncreased++
			}
		}
	}
	sum.CorrExecVsRead = metrics.Pearson(readR, execR)
	sum.CorrExecVsHit = metrics.Pearson(hitR, execR)
	sum.CorrReadVsHitWait = metrics.Pearson(hwMeans, readMeans)
	return sum
}

// Table renders the per-pair results as a text table.
func (s *Suite) Table() string {
	tb := &metrics.Table{Header: []string{
		"experiment", "total N (ms)", "total P (ms)", "Δexec%", "read N", "read P",
		"Δread%", "hit P", "dresp N", "dresp P",
	}}
	for _, p := range s.Pairs {
		tb.AddRow(
			p.Label(),
			fmt.Sprintf("%.0f", p.NoPrefetch.TotalTimeMillis()),
			fmt.Sprintf("%.0f", p.Prefetch.TotalTimeMillis()),
			fmt.Sprintf("%+.1f", p.ExecReduction()),
			fmt.Sprintf("%.2f", p.NoPrefetch.ReadTime.Mean()),
			fmt.Sprintf("%.2f", p.Prefetch.ReadTime.Mean()),
			fmt.Sprintf("%+.1f", p.ReadReduction()),
			fmt.Sprintf("%.3f", p.Prefetch.HitRatio()),
			fmt.Sprintf("%.1f", p.NoPrefetch.DiskResponse.Mean()),
			fmt.Sprintf("%.1f", p.Prefetch.DiskResponse.Mean()),
		)
	}
	return tb.String()
}

// ByPattern groups exec/read reductions per access pattern (§V-F
// "Differences Among the Patterns").
func (s *Suite) ByPattern() map[pattern.Kind]*struct {
	Exec, Read metrics.Sample
	Hit        metrics.Sample
} {
	out := map[pattern.Kind]*struct {
		Exec, Read metrics.Sample
		Hit        metrics.Sample
	}{}
	for _, p := range s.Pairs {
		g := out[p.Kind]
		if g == nil {
			g = &struct {
				Exec, Read metrics.Sample
				Hit        metrics.Sample
			}{}
			out[p.Kind] = g
		}
		g.Exec.Add(p.ExecReduction())
		g.Read.Add(p.ReadReduction())
		g.Hit.Add(p.Prefetch.HitRatio())
	}
	return out
}

// sweepDuration converts a millisecond count into a sim.Duration.
func sweepDuration(ms int) sim.Duration {
	return sim.Duration(ms) * sim.Millisecond
}
