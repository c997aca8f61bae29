package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// ScaleOptions configures the cluster-scale sweep (ROADMAP item 2): the
// paper stops at 20 PEs / 20 disks, and this study asks whether the
// prefetch-benefit and contention shapes of Figs. 7/8 extrapolate to
// 100k-1M nodes. Runs use the compact node engine (core.ScaleConfig):
// same model, flat per-node state instead of goroutines.
type ScaleOptions struct {
	// Nodes are the machine sizes to sweep, ascending. Defaults to
	// DefaultScaleSizes (100k-1M). The determinism and knee studies run
	// at Nodes[0], so CI smoke can pass a small leading size.
	Nodes []int
	// DiskRatio is the nodes-per-disk ratio for the node sweep. The
	// paper pairs every processor with a disk (ratio 1) — unaffordable
	// and unnecessary at 1M nodes; instead the sweep holds this ratio
	// and scales per-block computation to keep disk utilization at the
	// paper's ~50% operating point (see computeMean). Default 4.
	DiskRatio int
	// BlocksPerNode is the shared reference string's length divided by
	// the node count. The paper reads 100 blocks per processor; at 1M
	// nodes that is a 100M-event-class run, so the sweep defaults to 16
	// — enough cycles that steady-state behavior dominates the t=0
	// cold-start burst, small enough that the largest cell stays in
	// minutes of wall clock.
	BlocksPerNode int
	// KneeDivisors set the disk counts for the contention-knee study at
	// Nodes[0]: disks = nodes/divisor, computation fixed at the node
	// sweep's balance. Small divisors leave the disks half idle; large
	// ones saturate them, recreating Fig. 7's contention climb. Default
	// {64, 32, 16, 8, 4, 2, 1} — the knee lands inside the sweep with
	// flat tail visible after it.
	KneeDivisors []int
	// Seed drives all randomness.
	Seed uint64
	// EventsPerSecFloor is the S4 throughput floor. Default 50_000.
	EventsPerSecFloor float64
	// Progress, if non-nil, observes cell completions.
	Progress func(done, total int)

	// Telemetry attaches a windowed telemetry sink to the sweep's
	// leading prefetch cell (Nodes[0]) — or, when Chaos is on, to the
	// leading chaos cell, whose time series shows the fault activity —
	// and stores its snapshot and the
	// sampled full-fidelity trace on the ScaleResult. Per claim S5, the
	// sink never changes any Result byte — it only adds the windowed
	// view.
	Telemetry bool
	// TelemetryWindow is the aggregation window in virtual µs
	// (0 = telemetry.DefaultWindow, 100 ms of sim time).
	TelemetryWindow int64
	// SampleK is the number of nodes recorded at full fidelity when
	// Telemetry is on (0 = 16).
	SampleK int

	// Chaos adds one chaos row per swept size: the prefetch cell re-run
	// under the standard chaos composition (transient disk errors,
	// node stalls, and a one-rack correlated kill a quarter into the
	// clean run). VerifyChaosClaims turns it on; the plain sweep stays
	// fault-free.
	Chaos bool
	// Racks is the failure-domain count chaos cells split the machine
	// into (default 16, clamped to the disk count).
	Racks int
}

// DefaultScaleSizes is the cluster-scale node sweep of the tentpole
// claim: two decades past the paper's 20 processors.
func DefaultScaleSizes() []int { return []int{100_000, 250_000, 500_000, 1_000_000} }

func (o ScaleOptions) withDefaults() ScaleOptions {
	if len(o.Nodes) == 0 {
		o.Nodes = DefaultScaleSizes()
	}
	if o.DiskRatio == 0 {
		o.DiskRatio = 4
	}
	if o.BlocksPerNode == 0 {
		o.BlocksPerNode = 16
	}
	if len(o.KneeDivisors) == 0 {
		o.KneeDivisors = []int{64, 32, 16, 8, 4, 2, 1}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.EventsPerSecFloor == 0 {
		o.EventsPerSecFloor = 50_000
	}
	if o.Telemetry && o.SampleK == 0 {
		o.SampleK = 16
	}
	if o.Racks == 0 {
		o.Racks = 16
	}
	return o
}

// racksFor clamps the failure-domain count to the disk array: every
// rack must own at least one disk for a rack kill to mean anything.
func (o ScaleOptions) racksFor(disks int) int {
	if o.Racks > disks {
		return disks
	}
	return o.Racks
}

// disksFor sizes the node sweep's disk array.
func (o ScaleOptions) disksFor(nodes int) int {
	d := nodes / o.DiskRatio
	if d < 1 {
		d = 1
	}
	return d
}

// computeMean balances the machine at the sweep's disk ratio: with a
// per-block demand of DiskAccess every (DiskAccess + compute), setting
// compute = (2·ratio − 1)·DiskAccess puts each disk's utilization at
// ratio·DiskAccess/(DiskAccess+compute) = 50%, the paper's balanced
// operating point — busy enough for contention to be real, idle enough
// that prefetching has bandwidth to win with.
func (o ScaleOptions) computeMean(access sim.Duration) sim.Duration {
	return sim.Duration(2*o.DiskRatio-1) * access
}

// ScaleRow is one measured cell of the sweep.
type ScaleRow struct {
	Nodes        int
	Disks        int
	Prefetch     bool
	Chaos        bool    // run under the chaos composition
	DeadProcs    int     // processors lost to the chaos kill
	TotalMillis  float64 // virtual completion time
	ReadMean     float64 // mean block read time (ms)
	DiskResponse float64 // mean disk response time (ms)
	HitRatio     float64
	Events       int64   // kernel events dispatched
	WallSeconds  float64 // host wall clock for the run
	EventsPerSec float64 // Events / WallSeconds
	BytesPerNode float64 // retained-heap delta across the run / Nodes
}

// ScaleResult carries the cluster-scale study: the node sweep (with and
// without prefetching), the disk-contention knee study, and rendered
// figures extending Figs. 7/8 beyond the paper's axis.
type ScaleResult struct {
	Rows  []ScaleRow // node sweep, (no-prefetch, prefetch) per size
	Knee  []ScaleRow // disk sweep at Nodes[0], prefetching
	Chaos []ScaleRow // chaos cells, one per size (ScaleOptions.Chaos)

	// Telemetry and SampledTrace are set when ScaleOptions.Telemetry is
	// on: the windowed time series of the Nodes[0] prefetch cell and
	// the full-fidelity trace of its K sampled nodes.
	Telemetry    *telemetry.Snapshot
	SampledTrace *obs.Recorder

	// DiskAccessMillis is the raw per-block disk service time the sweep
	// ran with; KneeIndex uses it as the contention floor.
	DiskAccessMillis float64

	TotalTime    *metrics.Figure // total execution time vs nodes
	Improvement  *metrics.Figure // % exec-time reduction vs nodes
	Throughput   *metrics.Figure // simulator events/sec vs nodes
	BytesPerNode *metrics.Figure // retained bytes per node vs nodes
	DiskKnee     *metrics.Figure // Fig. 7 extrapolation: response vs disks
}

// Table renders the sweep as text.
func (r *ScaleResult) Table() string {
	tb := &metrics.Table{Header: []string{
		"nodes", "disks", "prefetch", "total (ms)", "read (ms)",
		"disk resp (ms)", "hit", "events", "events/sec", "B/node"}}
	rows := append(append([]ScaleRow{}, r.Rows...), r.Knee...)
	rows = append(rows, r.Chaos...)
	for _, row := range rows {
		mode := fmt.Sprintf("%v", row.Prefetch)
		if row.Chaos {
			mode += "+chaos"
		}
		tb.AddRow(
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Disks),
			mode,
			fmt.Sprintf("%.0f", row.TotalMillis),
			fmt.Sprintf("%.2f", row.ReadMean),
			fmt.Sprintf("%.2f", row.DiskResponse),
			fmt.Sprintf("%.3f", row.HitRatio),
			fmt.Sprintf("%d", row.Events),
			fmt.Sprintf("%.0f", row.EventsPerSec),
			fmt.Sprintf("%.0f", row.BytesPerNode),
		)
	}
	return tb.String()
}

// scaleCellConfig builds one cell of the node sweep: the compact
// cluster configuration at the sweep's seed, reference-string length,
// and balanced computation. Chaos cells and the claim probes start
// from this and layer fault configuration on top.
func scaleCellConfig(nodes, disks int, prefetch bool, blocks int, compute sim.Duration, seed uint64) core.Config {
	cfg := core.ScaleConfig(nodes, disks, prefetch)
	cfg.Seed = seed
	cfg.Pattern.Seed = seed
	cfg.Pattern.TotalBlocks = blocks
	cfg.ComputeMean = compute
	return cfg
}

// runScaleCell executes one compact-engine run and measures it. Cells
// run strictly serially: bytes/node is a heap-delta measurement, so the
// process must not host a second concurrent engine. tel, when
// non-nil, replaces the cell's counter sink with a windowed telemetry
// sink (the counters it needs are a subset of what telemetry keeps).
func runScaleCell(cfg core.Config, tel *telemetry.Sink) ScaleRow {
	nodes := cfg.Procs
	var totals func() obs.Counters
	if tel != nil {
		cfg.Obs = tel
		totals = tel.Totals
	} else {
		sink := &obs.CounterSink{}
		cfg.Obs = sink
		totals = sink.Snapshot
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := core.MustRun(cfg)
	wall := time.Since(start).Seconds()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	events := totals()[obs.CtrKernelEvents]
	row := ScaleRow{
		Nodes:    nodes,
		Disks:    cfg.Disks,
		Prefetch: cfg.Prefetch,
		// Backpressure is part of every scale cell (a throttle, not an
		// injected fault), so it does not mark a row as chaos.
		Chaos: cfg.Fault.Enabled() || cfg.Domain.Enabled() ||
			cfg.NodeFault.StallRate > 0 || cfg.NodeFault.KillAt > 0 ||
			cfg.NodeFault.StragglerFactor > 1,
		DeadProcs:    res.Faults.Node.DeadProcs,
		TotalMillis:  res.TotalTimeMillis(),
		ReadMean:     res.ReadTime.Mean(),
		DiskResponse: res.DiskResponse.Mean(),
		HitRatio:     res.HitRatio(),
		Events:       events,
		WallSeconds:  wall,
	}
	if wall > 0 {
		row.EventsPerSec = float64(events) / wall
	}
	// The delta brackets engine construction and the run, after the
	// engine itself is garbage: what one run durably cost. Peaks are
	// higher; the budget claim is about state per node, which is what
	// survives collection mid-run.
	if after.HeapAlloc > before.HeapAlloc {
		row.BytesPerNode = float64(after.HeapAlloc-before.HeapAlloc) / float64(nodes)
	}
	return row
}

// RunScaleSweep runs the cluster-scale study.
func RunScaleSweep(opts ScaleOptions) *ScaleResult {
	opts = opts.withDefaults()
	r := &ScaleResult{
		TotalTime: &metrics.Figure{
			Title:  "Scale — Total execution time vs nodes (gw, compact engine)",
			XLabel: "nodes",
			YLabel: "total execution time (ms)",
		},
		Improvement: &metrics.Figure{
			Title:  "Scale — Prefetching benefit vs nodes (Fig. 8 extrapolation)",
			XLabel: "nodes",
			YLabel: "% reduction in total execution time",
		},
		Throughput: &metrics.Figure{
			Title:  "Scale — Simulator throughput vs nodes",
			XLabel: "nodes",
			YLabel: "kernel events per wall-clock second",
		},
		BytesPerNode: &metrics.Figure{
			Title:  "Scale — Retained memory per node vs nodes",
			XLabel: "nodes",
			YLabel: "bytes per node",
		},
		DiskKnee: &metrics.Figure{
			Title:  "Scale — Disk response time vs disks (Fig. 7 extrapolation)",
			XLabel: "disks",
			YLabel: "average disk response time (ms)",
		},
	}
	pf := r.TotalTime.AddSeries("prefetch", 'P')
	np := r.TotalTime.AddSeries("no prefetch", 'N')
	imp := r.Improvement.AddSeries("gw", 'o')
	thr := r.Throughput.AddSeries("prefetch", 'P')
	bpn := r.BytesPerNode.AddSeries("prefetch", 'P')
	knee := r.DiskKnee.AddSeries("prefetch", 'P')

	total := 2*len(opts.Nodes) + len(opts.KneeDivisors)
	if opts.Chaos {
		total += len(opts.Nodes)
	}
	done := 0
	tick := func() {
		done++
		if opts.Progress != nil {
			opts.Progress(done, total)
		}
	}
	access := core.DefaultConfig(pattern.GW).DiskAccess
	compute := opts.computeMean(access)
	r.DiskAccessMillis = access.Millis()

	for i, n := range opts.Nodes {
		base := runScaleCell(scaleCellConfig(n, opts.disksFor(n), false, n*opts.BlocksPerNode, compute, opts.Seed), nil)
		tick()
		// The leading prefetch cell carries the telemetry sink — or, in
		// a chaos sweep, the leading chaos cell instead, so the exported
		// time series shows the storm and the rack kill (the
		// EXPERIMENTS.md chaos walkthrough reads that export).
		newTel := func() *telemetry.Sink {
			return telemetry.New(telemetry.Config{
				Window:     opts.TelemetryWindow,
				SampleK:    opts.SampleK,
				Nodes:      n,
				SampleSeed: opts.Seed,
			})
		}
		var tel *telemetry.Sink
		if opts.Telemetry && i == 0 && !opts.Chaos {
			tel = newTel()
		}
		with := runScaleCell(scaleCellConfig(n, opts.disksFor(n), true, n*opts.BlocksPerNode, compute, opts.Seed), tel)
		tick()
		r.Rows = append(r.Rows, base, with)
		x := float64(n)
		np.Add(x, base.TotalMillis)
		pf.Add(x, with.TotalMillis)
		imp.Add(x, metrics.PercentReduction(base.TotalMillis, with.TotalMillis))
		thr.Add(x, with.EventsPerSec)
		bpn.Add(x, with.BytesPerNode)

		if opts.Chaos {
			ccfg := scaleCellConfig(n, opts.disksFor(n), true, n*opts.BlocksPerNode, compute, opts.Seed)
			opts.chaosFaults(&ccfg)
			opts.chaosKill(&ccfg, sim.Millis(with.TotalMillis/4))
			if opts.Telemetry && i == 0 {
				tel = newTel()
			}
			r.Chaos = append(r.Chaos, runScaleCell(ccfg, tel))
			tick()
		}
		if tel != nil {
			r.Telemetry = tel.Snapshot()
			r.SampledTrace = tel.Sampled()
		}
	}
	for _, div := range opts.KneeDivisors {
		d := opts.Nodes[0] / div
		if d < 1 {
			d = 1
		}
		row := runScaleCell(scaleCellConfig(opts.Nodes[0], d, true, opts.Nodes[0]*opts.BlocksPerNode, compute, opts.Seed), nil)
		tick()
		r.Knee = append(r.Knee, row)
		knee.Add(float64(d), row.DiskResponse)
	}
	return r
}

// KneeIndex locates the contention knee in the disk study: the first
// point where the mean disk response falls below twice the raw access
// time — queueing wait has dropped below service time, so the curve has
// left its contention-dominated steep region and entered the flat
// service-time floor of Fig. 7. Returns -1 if the curve never gets
// there within the swept range.
func (r *ScaleResult) KneeIndex() int {
	for i, row := range r.Knee {
		if row.DiskResponse < 2*r.DiskAccessMillis {
			return i
		}
	}
	return -1
}

// VerifyScaleClaims machine-checks the cluster-scale claims S1-S4 on
// top of a fresh sweep:
//
//	S1  determinism at scale — a 100k-node-class run is byte-identical
//	    across repetition
//	S2  the prefetch benefit persists at every swept size
//	S3  disk contention has a knee: response time falls steeply with
//	    disk count, then flattens within the swept range
//	S4  throughput stays above the events/sec floor at every size,
//	    and retained state stays under 1 KB per node
//	S5  telemetry invariance — the windowed telemetry sink (windows,
//	    histograms, sampling, flight recorder) leaves the Result
//	    byte-identical to a sink-free run
func VerifyScaleClaims(opts ScaleOptions) (*Verification, *ScaleResult) {
	opts = opts.withDefaults()
	v := &Verification{}
	add := func(id, claim, measured string, pass bool) {
		v.Claims = append(v.Claims, Claim{ID: id, Paper: claim, Measured: measured, Pass: pass})
	}

	// S1: determinism at the sweep's leading size. The compact engine
	// promises identical Results for the same seed; compare full
	// marshaled Results, not summaries.
	n0 := opts.Nodes[0]
	marshal := func(sink obs.Sink) []byte {
		cfg := scaleCellConfig(n0, opts.disksFor(n0), true,
			n0*opts.BlocksPerNode, opts.computeMean(core.DefaultConfig(pattern.GW).DiskAccess), opts.Seed)
		cfg.Obs = sink
		b, err := json.Marshal(core.MustRun(cfg))
		if err != nil {
			panic(err)
		}
		return b
	}
	a, b := marshal(nil), marshal(nil)
	add("S1-determinism",
		fmt.Sprintf("a %d-node run is deterministic (repeat)", n0),
		fmt.Sprintf("result JSON %d bytes; repeat equal: %v", len(a), bytes.Equal(a, b)),
		bytes.Equal(a, b))

	// S5: telemetry invariance. A full telemetry sink — windows,
	// histograms, node sampling, flight recorder — observes the same
	// run, and the Result must not move by a byte: aggregation is a
	// pure fold over the emission stream, never a feedback path. (The
	// PR-4 identity guarantee, extended to the telemetry sink at
	// cluster scale.)
	sampleK := opts.SampleK
	if sampleK == 0 {
		sampleK = 16 // exercise the sampling path even when the sweep runs without -telemetry
	}
	tel := telemetry.New(telemetry.Config{
		Window:     opts.TelemetryWindow,
		SampleK:    sampleK,
		Nodes:      n0,
		SampleSeed: opts.Seed,
	})
	telBytes := marshal(tel)
	telSane := len(tel.Windows()) > 0 && tel.Totals()[obs.CtrKernelEvents] > 0
	add("S5-telemetry-invariant",
		fmt.Sprintf("a %d-node run with the windowed telemetry sink is byte-identical to the sink-free run", n0),
		fmt.Sprintf("result JSON equal: %v; sink saw %d windows, %d kernel events",
			bytes.Equal(a, telBytes), len(tel.Windows()), tel.Totals()[obs.CtrKernelEvents]),
		bytes.Equal(a, telBytes) && telSane)

	sweep := RunScaleSweep(opts)

	// S2: prefetch benefit at every size.
	worstExec, worstRead := 1e18, 1e18
	for i := 0; i+1 < len(sweep.Rows); i += 2 {
		base, with := sweep.Rows[i], sweep.Rows[i+1]
		if d := metrics.PercentReduction(base.TotalMillis, with.TotalMillis); d < worstExec {
			worstExec = d
		}
		if d := metrics.PercentReduction(base.ReadMean, with.ReadMean); d < worstRead {
			worstRead = d
		}
	}
	add("S2-benefit-persists",
		"prefetching keeps reducing read and total time at every swept size",
		fmt.Sprintf("worst exec reduction %+.1f%%, worst read reduction %+.1f%%", worstExec, worstRead),
		worstExec > 0 && worstRead > 0)

	// S3: the contention knee. Fig. 7's shape — response time driven by
	// queueing on too few disks — must extrapolate: steep fall, then a
	// flat region inside the swept disk range.
	ki := sweep.KneeIndex()
	first, last := sweep.Knee[0].DiskResponse, sweep.Knee[len(sweep.Knee)-1].DiskResponse
	measured := "no knee within swept range"
	if ki >= 0 {
		measured = fmt.Sprintf("knee at %d disks; response %.1f -> %.1f ms over sweep",
			sweep.Knee[ki].Disks, first, last)
	}
	add("S3-contention-knee", "disk response falls steeply with disks, then flattens (knee)",
		measured, ki >= 1 && first > 2*last)

	// S4: throughput floor and the per-node memory budget.
	minThr, maxBPN := 1e18, 0.0
	for _, row := range append(append([]ScaleRow{}, sweep.Rows...), sweep.Knee...) {
		if row.EventsPerSec < minThr {
			minThr = row.EventsPerSec
		}
		if row.BytesPerNode > maxBPN {
			maxBPN = row.BytesPerNode
		}
	}
	add("S4-throughput-floor",
		fmt.Sprintf("every run sustains >= %.0f events/sec at < 1 KB retained per node", opts.EventsPerSecFloor),
		fmt.Sprintf("min %.0f events/sec, max %.0f bytes/node", minThr, maxBPN),
		minThr >= opts.EventsPerSecFloor && maxBPN < 1024)

	return v, sweep
}
