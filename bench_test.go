package rapid

// One benchmark per figure/experiment of the paper's evaluation, as
// indexed in DESIGN.md. Each benchmark regenerates the corresponding
// figure's data at the paper's full scale (20 processors, 2000 blocks)
// and reports the figure's headline quantity as a custom metric, so
// `go test -bench=.` doubles as a compact reproduction table.
//
// Benchmarks whose figure comes from the factorial suite share one
// suite run per iteration via benchSuite.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

var (
	suiteOnce   sync.Once
	cachedSuite *Suite
)

// benchSuite runs the paper-scale factorial suite once and reuses it:
// the suite is deterministic, so every figure derives from the same
// data, exactly as in the paper.
func benchSuite() *Suite {
	suiteOnce.Do(func() { cachedSuite = RunSuite(PaperScale()) })
	return cachedSuite
}

func BenchmarkFig03ReadTime(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		fig := s.Fig3ReadTime()
		med = s.Summarize().ReadReduction.Median()
		if len(fig.Series[0].Points) != 46 {
			b.Fatal("wrong point count")
		}
	}
	b.ReportMetric(med, "median-read-reduction-%")
}

func BenchmarkFig04HitRatio(b *testing.B) {
	var min float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		_ = s.Fig4HitRatioCDF()
		min = s.Summarize().HitRatioPrefetch.Min()
	}
	b.ReportMetric(min, "min-hit-ratio")
}

func BenchmarkFig05HitKinds(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		fig := s.Fig5HitKindsCDF()
		frac = fig.FindSeries("U (unready hits)").YSample().Mean()
	}
	b.ReportMetric(frac, "mean-unready-cdf-y")
}

func BenchmarkFig06HitWait(b *testing.B) {
	var hw float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		fig := s.Fig6ReadVsHitWait()
		hw = fig.Series[0].Points[0].X
	}
	b.ReportMetric(hw, "first-hit-wait-ms")
}

func BenchmarkFig07DiskResponse(b *testing.B) {
	var worsened float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		fig := s.Fig7DiskResponse()
		above := 0
		for _, p := range fig.Series[0].Points {
			if p.Y > p.X {
				above++
			}
		}
		worsened = float64(above) / float64(len(fig.Series[0].Points))
	}
	b.ReportMetric(worsened, "fraction-worsened")
}

func BenchmarkFig08TotalTime(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		_ = s.Fig8TotalTime()
		med = s.Summarize().ExecReduction.Median()
	}
	b.ReportMetric(med, "median-exec-reduction-%")
}

func BenchmarkFig09SyncTime(b *testing.B) {
	var increased float64
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		_ = s.Fig9SyncTime()
		sum := s.Summarize()
		increased = float64(sum.SyncTimeIncreased) / float64(sum.SyncPairs)
	}
	b.ReportMetric(increased, "fraction-sync-increased")
}

func BenchmarkFig10ExecVsRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchSuite().Fig10ExecVsRead().Series[0].Points) != 46 {
			b.Fatal("wrong point count")
		}
	}
}

func BenchmarkFig11ExecVsHit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchSuite().Fig11ExecVsHitRatio().Series[0].Points) != 46 {
			b.Fatal("wrong point count")
		}
	}
}

func BenchmarkFig12ComputeSweep(b *testing.B) {
	var bestSpeedup float64
	for i := 0; i < b.N; i++ {
		r := ComputeSweep(PaperScale(), []int{0, 10, 20, 30, 40, 50, 60})
		pf := r.TotalTime.FindSeries("prefetch")
		np := r.TotalTime.FindSeries("no prefetch")
		bestSpeedup = 0
		for j := range pf.Points {
			if s := np.Points[j].Y / pf.Points[j].Y; s > bestSpeedup {
				bestSpeedup = s
			}
		}
	}
	b.ReportMetric(bestSpeedup, "best-speedup-x")
}

// leadSweep is shared by the four lead benchmarks (Figs. 13–16); it is
// the most expensive experiment (local patterns read 40 000 blocks).
var (
	leadOnce   sync.Once
	cachedLead *LeadSweepShape
)

// LeadSweepShape mirrors experiment.LeadSweepResult through the façade.
type LeadSweepShape struct {
	HitWait, MissRatio, ReadTime, TotalTime *Figure
}

func benchLead() *LeadSweepShape {
	leadOnce.Do(func() {
		r := LeadSweep(PaperScale(), []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90})
		cachedLead = &LeadSweepShape{
			HitWait: r.HitWait, MissRatio: r.MissRatio,
			ReadTime: r.ReadTime, TotalTime: r.TotalTime,
		}
	})
	return cachedLead
}

func BenchmarkFig13LeadHitWait(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		gw := benchLead().HitWait.FindSeries("gw").Points
		drop = gw[0].Y - gw[len(gw)-1].Y
	}
	b.ReportMetric(drop, "gw-hit-wait-drop-ms")
}

func BenchmarkFig14LeadMissRatio(b *testing.B) {
	var climb float64
	for i := 0; i < b.N; i++ {
		gw := benchLead().MissRatio.FindSeries("gw").Points
		climb = gw[len(gw)-1].Y
	}
	b.ReportMetric(climb, "gw-miss-ratio-at-90")
}

func BenchmarkFig15LeadReadTime(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		gw := benchLead().ReadTime.FindSeries("gw").Points
		ratio = gw[len(gw)-1].Y / gw[0].Y
	}
	b.ReportMetric(ratio, "gw-read-time-growth-x")
}

func BenchmarkFig16LeadTotalTime(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		gw := benchLead().TotalTime.FindSeries("gw").Points
		ratio = gw[len(gw)-1].Y / gw[0].Y
	}
	b.ReportMetric(ratio, "gw-total-time-growth-x")
}

func BenchmarkExpMinPrefetchTime(b *testing.B) {
	var overrunDrop float64
	for i := 0; i < b.N; i++ {
		r := MinPrefetchTimeSweep(PaperScale(), []int{0, 5, 10, 15, 20, 25})
		ov := r.Overrun.Series[0].Points
		overrunDrop = ov[0].Y - ov[len(ov)-1].Y
	}
	b.ReportMetric(overrunDrop, "overrun-drop-ms")
}

func BenchmarkExpBufferCount(b *testing.B) {
	var oneVsThree float64
	for i := 0; i < b.N; i++ {
		f := BufferCountSweep(PaperScale(), []int{1, 2, 3, 4, 5})
		gw := f.FindSeries("gw").Points
		oneVsThree = gw[2].Y - gw[0].Y // improvement gained from 1 -> 3 buffers
	}
	b.ReportMetric(oneVsThree, "gw-gain-1to3-buffers-pp")
}

func BenchmarkExpPatternBreakdown(b *testing.B) {
	var lwMedian float64
	for i := 0; i < b.N; i++ {
		groups := benchSuite().ByPattern()
		lwMedian = groups[LW].Exec.Median()
	}
	b.ReportMetric(lwMedian, "lw-median-exec-reduction-%")
}

func BenchmarkExpFig1Motivation(b *testing.B) {
	var skew float64
	for i := 0; i < b.N; i++ {
		skew = Fig1Motivation(PaperScale().Seed).ReadSkew()
	}
	b.ReportMetric(skew, "per-proc-read-skew-x")
}

// Ablation benches for the design decisions DESIGN.md calls out.

func BenchmarkAblationBufferPolicy(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		global := MustRun(prefetchConfig(LFP, false))
		perNode := MustRun(prefetchConfig(LFP, true))
		penalty = PercentReduction(global.TotalTimeMillis(), perNode.TotalTimeMillis())
	}
	b.ReportMetric(penalty, "per-node-vs-global-%")
}

func BenchmarkAblationFreePrefetch(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		costed := MustRun(prefetchConfig(GW, false))
		cfg := prefetchConfig(GW, false)
		cfg.Memory = FreeMemory()
		free := MustRun(cfg)
		gain = PercentReduction(costed.TotalTimeMillis(), free.TotalTimeMillis())
	}
	b.ReportMetric(gain, "free-overhead-gain-%")
}

func BenchmarkAblationRUSetSize(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		one := MustRun(prefetchConfig(LW, false))
		cfg := prefetchConfig(LW, false)
		cfg.RUSetSize = 4
		four := MustRun(cfg)
		delta = PercentReduction(one.TotalTimeMillis(), four.TotalTimeMillis())
	}
	b.ReportMetric(delta, "ru4-vs-ru1-%")
}

func prefetchConfig(kind PatternKind, perNode bool) Config {
	cfg := DefaultConfig(kind)
	cfg.Sync = SyncEveryNEach
	cfg.Prefetch = true
	cfg.PerNodePrefetchLimit = perNode
	return cfg
}

// BenchmarkSingleRun measures the raw simulator throughput for one
// paper-scale prefetching run (useful when optimizing the kernel).
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := prefetchConfig(GW, false)
		r := MustRun(cfg)
		if r.Cache.Accesses() != 2000 {
			b.Fatal("wrong access count")
		}
	}
}

// BenchmarkClusterScale measures the compact engine at cluster scale:
// a 100k-node, 25k-disk prefetching run at the scale sweep's operating
// point (16 blocks/node, disks at 50% utilization). Reports events/sec
// — kernel events dispatched per wall-clock second — and bytes/node,
// the live heap one run retains per node (the budget that makes the
// 1M-node sweep feasible; the goroutine engine's stacks alone are 2
// KB/node).
func BenchmarkClusterScale(b *testing.B) {
	const nodes = 100_000
	b.ReportAllocs()
	var events int64
	var perNode float64
	for i := 0; i < b.N; i++ {
		cfg := ScaleConfig(nodes, nodes/4, true)
		cfg.Pattern.TotalBlocks = 16 * nodes
		cfg.ComputeMean = 7 * cfg.DiskAccess
		sink := &obs.CounterSink{}
		cfg.Obs = sink
		b.StopTimer()
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		r := MustRun(cfg)
		b.StopTimer()
		runtime.GC()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > before.HeapAlloc {
			perNode = float64(after.HeapAlloc-before.HeapAlloc) / nodes
		}
		runtime.KeepAlive(r)
		b.StartTimer()
		events = sink.Snapshot()[obs.CtrKernelEvents]
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(perNode, "bytes/node")
}

// BenchmarkTelemetryOverhead prices the windowed telemetry sink at
// cluster scale: the same 100k-node run as BenchmarkClusterScale with
// no sink, with the windowed sink, and with the windowed sink plus a
// 64-node full-fidelity sample. The telemetry acceptance bar is the
// off→windowed gap staying under 5% of wall clock; compare the arms'
// ns/op (the CI bench A/B step records both sides).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const nodes = 100_000
	arms := []struct {
		name string
		sink func() obs.Sink
	}{
		{"off", func() obs.Sink { return nil }},
		{"windowed", func() obs.Sink {
			return telemetry.New(telemetry.Config{Nodes: nodes, FlightSpans: -1})
		}},
		{"windowed-sampled64", func() obs.Sink {
			return telemetry.New(telemetry.Config{Nodes: nodes, SampleK: 64, FlightSpans: -1})
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			var windows int
			for i := 0; i < b.N; i++ {
				cfg := ScaleConfig(nodes, nodes/4, true)
				cfg.Pattern.TotalBlocks = 16 * nodes
				cfg.ComputeMean = 7 * cfg.DiskAccess
				sink := arm.sink()
				cfg.Obs = sink
				r := MustRun(cfg)
				runtime.KeepAlive(r)
				if tel, ok := sink.(*telemetry.Sink); ok {
					windows = len(tel.Windows())
					if windows == 0 {
						b.Fatal("telemetry sink saw no windows")
					}
				}
			}
			b.ReportMetric(float64(windows), "windows")
		})
	}
}

// BenchmarkExtPredictorStudy runs the on-the-fly prediction study (the
// paper's §VI future work): oracle vs OBL vs SEQ vs GAPS over all six
// patterns.
func BenchmarkExtPredictorStudy(b *testing.B) {
	var gapsVsOracle float64
	for i := 0; i < b.N; i++ {
		s := RunPredictorStudy(PaperScale())
		gapsVsOracle = s.Row(GW, PredictGAPS).ExecReduction - s.Row(GW, PredictOracle).ExecReduction
	}
	b.ReportMetric(gapsVsOracle, "gw-gaps-minus-oracle-pp")
}

// BenchmarkExtScalability runs the §VI scalability study.
func BenchmarkExtScalability(b *testing.B) {
	var at64 float64
	for i := 0; i < b.N; i++ {
		r := ScalabilitySweep(PaperScale(), []int{4, 8, 16, 32, 64})
		pts := r.Improvement.Series[0].Points
		at64 = pts[len(pts)-1].Y
	}
	b.ReportMetric(at64, "improvement-at-64-procs-%")
}

// BenchmarkExtLayoutStudy runs the block-placement study under the
// seek-charging disk model.
func BenchmarkExtLayoutStudy(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		s := RunLayoutStudy(PaperScale())
		penalty = s.Row(LayoutSegmented, true).TotalMillis / s.Row(LayoutRoundRobin, true).TotalMillis
	}
	b.ReportMetric(penalty, "segmented-vs-roundrobin-x")
}

// BenchmarkExtSchedStudy compares disk queue scheduling policies under
// a seek model.
func BenchmarkExtSchedStudy(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		s := RunSchedStudy(PaperScale())
		gain = s.Row(DiskFIFO).DiskResponse - s.Row(DiskSSTF).DiskResponse
	}
	b.ReportMetric(gain, "sstf-response-gain-ms")
}

// BenchmarkExtHybridStudy measures the hybrid-pattern extension.
func BenchmarkExtHybridStudy(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		red = RunHybridStudy(PaperScale()).HybridReduction
	}
	b.ReportMetric(red, "hybrid-exec-reduction-%")
}

// BenchmarkFig08FaultRate1pct measures the robustness extension: the
// base gw total-time cell (Fig. 8's headline quantity) under a 1%
// injected transient read-error rate, reporting how much of
// prefetching's benefit survives fault recovery.
func BenchmarkFig08FaultRate1pct(b *testing.B) {
	var red float64
	for i := 0; i < b.N; i++ {
		r := RunFaultSweep(PaperScale(), []float64{0.01})
		red = PercentReduction(r.Base[0].TotalTimeMillis(), r.Pref[0].TotalTimeMillis())
		if r.Base[0].Faults.Disk.Transient == 0 {
			b.Fatal("no faults injected")
		}
	}
	b.ReportMetric(red, "exec-reduction-%-at-1%-faults")
}

// BenchmarkAblationBufferHome isolates the NUMA buffer-placement cost:
// under lw every block is consumed by 19 remote nodes, so zeroing the
// remote-buffer penalty bounds how much placement matters (paper
// footnote 1).
func BenchmarkAblationBufferHome(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		with := MustRun(prefetchConfig(LW, false))
		cfg := prefetchConfig(LW, false)
		cfg.Memory.RemoteBuffer = MemoryCost{}
		without := MustRun(cfg)
		gain = PercentReduction(with.TotalTimeMillis(), without.TotalTimeMillis())
	}
	b.ReportMetric(gain, "local-buffers-gain-%")
}
