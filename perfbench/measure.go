package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/obs"
)

// config is one benchmark invocation.
type config struct {
	name, size string
	seed       uint64
	seconds    float64
	trace      bool
	params     params
	pin        string // digest pinned for seed 1 at this size, if any
}

// result carries the reported metrics of one invocation.
type result struct {
	e2e, layer        map[string]metric
	order, layerOrder []string
	notes             []string // human-readable lines outside the metric set
	attempted         int
	failures          []string
}

// minReps is the fewest untraced repetitions a run measures, however
// long each takes, so that every reported time summarizes several.
const minReps = 3

// measure runs the workload cfg names; see measureRep.
func measure(cfg config) (*result, error) {
	rep, err := prepare(cfg.name, cfg.params, cfg.seed)
	if err != nil {
		return nil, err
	}
	return measureRep(cfg, rep)
}

// measureRep runs rep: traced repetitions first (they warm the heap and
// give the reference digest and the event count), then untraced
// repetitions for the measured interval. In trace mode the interval is
// split evenly between the two, and the traced repetitions run under the
// CPU profiler. A repetition that errs, panics, or whose digest differs
// from the reference is counted as failed; after 2 x minReps untraced
// failures in a row the run stops early.
func measureRep(cfg config, rep repFunc) (*result, error) {
	res := &result{}
	fail := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	traceBudget := time.Duration(0)
	if cfg.trace {
		traceBudget = budget / 2
		budget -= traceBudget
	}

	// Traced repetitions.
	var (
		ref        string
		sink       *layerSink
		traced     []*outcome
		tracedCPUs []float64
		callTimes  = map[string][]float64{}
		profiles   []string
		profDir    string
	)
	if cfg.trace {
		var err error
		if profDir, err = os.MkdirTemp("", "perfbench-prof"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(profDir)
	}
	start := time.Now()
	for tries := 1; (len(traced) == 0 && tries <= minReps) || time.Since(start) < traceBudget; tries++ {
		res.attempted++
		s := &layerSink{}
		runtime.GC()
		stop := func() error { return nil }
		if cfg.trace {
			path := filepath.Join(profDir, fmt.Sprintf("cpu%d.pb.gz", tries))
			var err error
			if stop, err = startProfile(path); err != nil {
				return nil, err
			}
			profiles = append(profiles, path)
		}
		o, err := safeRep(rep, s)
		if err := stop(); err != nil {
			return nil, err
		}
		if err != nil {
			fail("traced: %v", err)
			continue
		}
		if ref == "" {
			ref = o.digest
		} else if o.digest != ref {
			fail("traced result digest %s differs from %s", o.digest, ref)
		}
		sink = s
		traced = append(traced, o)
		tracedCPUs = append(tracedCPUs, o.run.cpu.Seconds())
		for k, v := range o.calls {
			callTimes[k] = append(callTimes[k], v)
		}
	}
	if ref != "" && cfg.seed == 1 && cfg.pin != "" && ref != cfg.pin {
		fail("seed-1 result digest %s differs from the pinned %s", ref, cfg.pin)
	}

	// Untraced repetitions.
	var walls, cpus, setups, allocs, mallocs, retained []float64
	start = time.Now()
	for failedInRow := 0; failedInRow < 2*minReps && (len(walls) < minReps || time.Since(start) < budget); {
		res.attempted++
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		o, err := safeRep(rep, nil)
		if err != nil {
			fail("untraced: %v", err)
			failedInRow++
			continue
		}
		failedInRow = 0
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc-o.dupAlloc))
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs-o.dupMallocs))
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(o.keep)
		retained = append(retained, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(o.nodes))
		if ref == "" {
			ref = o.digest // every traced repetition failed
		} else if o.digest != ref {
			fail("untraced result digest %s differs from the traced %s", o.digest, ref)
		}
		walls = append(walls, o.run.wall.Seconds())
		cpus = append(cpus, o.run.cpu.Seconds())
		setups = append(setups, o.setup.cpu.Seconds())
	}

	if sink == nil {
		sink = &layerSink{} // every traced repetition failed
	}
	counters := sink.Snapshot()
	if len(traced) > 0 && traced[0].fill != nil {
		traced[0].fill(&counters)
	}
	events := float64(counters[obs.CtrKernelEvents])
	// run_cpu_s and setup_s are the fastest repetition's CPU times.
	// Contention from other guests on a shared host only ever adds time,
	// in episodes of seconds to minutes, so the minimum tracks the
	// program's own cost; the medians, printed beside them, also track
	// the neighbours' load.
	cpu := quantile(cpus, 0)
	eventsPerCPU := 0.0 // no untraced repetition succeeded
	if cpu > 0 {
		eventsPerCPU = events / cpu
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	const mib = 1 << 20
	res.e2e = map[string]metric{}
	add := func(m map[string]metric, order *[]string, name string, v float64, unit string) {
		m[name] = metric{v, unit}
		*order = append(*order, name)
	}
	e := func(name string, v float64, unit string) { add(res.e2e, &res.order, name, v, unit) }
	e("run_cpu_s", cpu, "s")
	e("setup_s", quantile(setups, 0), "s")
	e("events_per_cpu_s", eventsPerCPU, "1/s")
	e("alloc_mb", median(allocs)/mib, "MiB")
	e("mallocs_k", median(mallocs)/1e3, "k")
	e("peak_rss_mb", float64(ru.Maxrss)*1024/mib, "MiB")
	e("retained_b_per_node", median(retained), "B")
	note := func(format string, args ...any) { res.notes = append(res.notes, fmt.Sprintf(format, args...)) }
	note("wall_s %.6g s: median wall-clock seconds of %d untraced runs (min %.6g, max %.6g)",
		median(walls), len(walls), quantile(walls, 0), quantile(walls, 1))
	note("run_cpu_s median %.6g s, setup_s median %.6g s", median(cpus), median(setups))
	if p := tailPercentile(len(walls)); p > 0 {
		note("wall_s.p%d %.6g s, run_cpu_s.p%d %.6g s: the highest percentile with 10 runs beyond it",
			p, quantile(walls, float64(p)/100), p, quantile(cpus, float64(p)/100))
	}
	note("fail_frac %d/%d = %.6g", len(res.failures), res.attempted,
		float64(len(res.failures))/float64(res.attempted))
	note("result digest %s", ref)
	if !cfg.trace {
		return res, nil
	}

	cpuNS := map[string]int64{}
	if err := foldProfiles(profiles, cpuNS); err != nil {
		return nil, err
	}
	res.layer = map[string]metric{}
	l := func(name string, v float64, unit string) { add(res.layer, &res.layerOrder, name, v, unit) }
	var total int64
	for _, v := range cpuNS {
		total += v
	}
	tracedCPU := quantile(tracedCPUs, 0)
	for _, name := range layers {
		share := 0.0
		if total > 0 {
			share = float64(cpuNS[name]) / float64(total)
		}
		l("cpu."+name, share, "share")
		perEvent := 0.0
		if events > 0 {
			perEvent = share * tracedCPU * 1e9 / events
		}
		l("ns_per_event."+name, perEvent, "ns")
	}
	ctr := func(name string, c obs.Counter) { l(name, float64(counters[c]), "count") }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	ctr("sim.events", obs.CtrKernelEvents)
	ctr("sim.wakes", obs.CtrKernelWakes)
	ctr("sim.steps", obs.CtrKernelSteps)
	ctr("sim.spawns", obs.CtrKernelSpawns)
	ctr("disk.requests", obs.CtrDiskRequests)
	ctr("disk.prefetch_requests", obs.CtrDiskPrefetchRequests)
	ctr("disk.faulted", obs.CtrDiskFaultedRequests)
	ctr("cache.ready_hits", obs.CtrCacheReadyHits)
	ctr("cache.unready_hits", obs.CtrCacheUnreadyHits)
	ctr("cache.misses", obs.CtrCacheMisses)
	ctr("cache.failed_fills", obs.CtrCacheFailedFills)
	hits := counters[obs.CtrCacheReadyHits] + counters[obs.CtrCacheUnreadyHits]
	l("cache.hit_ratio", ratio(hits, hits+counters[obs.CtrCacheMisses]), "ratio")
	ctr("prefetch.actions", obs.CtrPrefetchActions)
	ctr("prefetch.issued", obs.CtrCachePrefetchesIssued)
	ctr("prefetch.consumed", obs.CtrCachePrefetchesConsumed)
	ctr("prefetch.throttled", obs.CtrPrefetchThrottled)
	l("prefetch.useful_ratio", ratio(counters[obs.CtrCachePrefetchesConsumed], counters[obs.CtrCachePrefetchesIssued]), "ratio")
	ctr("barrier.gens", obs.CtrBarrierGens)
	ctr("barrier.quorum_releases", obs.CtrQuorumReleases)
	ctr("fault.draws", obs.CtrFaultDraws)
	ctr("fault.injected", obs.CtrFaultsInjected)
	ctr("fault.read_retries", obs.CtrReadRetries)
	ctr("fault.node_stalls", obs.CtrNodeStalls)
	sp := &sink.spans
	l("disk.queue_ms.p50", sp[obs.SpanDiskQueue].quantileMS(0.5), "ms")
	l("disk.queue_ms.p99", sp[obs.SpanDiskQueue].quantileMS(0.99), "ms")
	l("core.demand_wait_ms.p50", sp[obs.SpanDemandWait].quantileMS(0.5), "ms")
	l("core.demand_wait_ms.p99", sp[obs.SpanDemandWait].quantileMS(0.99), "ms")
	l("core.hit_wait_ms.p50", sp[obs.SpanHitWait].quantileMS(0.5), "ms")
	l("barrier.sync_wait_ms.p50", sp[obs.SpanSyncWait].quantileMS(0.5), "ms")
	l("barrier.sync_wait_ms.p99", sp[obs.SpanSyncWait].quantileMS(0.99), "ms")
	l("fault.backoff_ms.sum", sp[obs.SpanBackoff].sumMS(), "ms")
	for _, name := range []string{"pattern.generate_s", "core.new_s", "fs.create_s", "fs.sync_s"} {
		l(name, median(callTimes[name]), "s")
	}
	overhead := 0.0
	if cpu > 0 && tracedCPU > 0 {
		overhead = tracedCPU/cpu - 1
	}
	l("obs.trace_overhead", overhead, "ratio")
	return res, nil
}

// startProfile starts the CPU profiler writing to a new file at path,
// and returns the function that stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// safeRep runs one repetition, turning a panic — a *sim.DeadlockError,
// an audit violation, any engine failure — into an error, so that one
// failed run is counted rather than ending the benchmark.
func safeRep(rep repFunc, sink *layerSink) (o *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	if sink == nil {
		return rep(nil)
	}
	return rep(sink)
}
