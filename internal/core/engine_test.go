package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// smallConfig shrinks the paper's setup for fast unit tests.
func smallConfig(kind pattern.Kind, procs, reads int) Config {
	cfg := DefaultConfig(kind)
	cfg.Procs = procs
	cfg.Disks = procs
	cfg.Pattern.Procs = procs
	if kind.Local() {
		cfg.Pattern.BlocksPerProc = reads
	} else {
		cfg.Pattern.TotalBlocks = reads
	}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.Disks = 0 },
		func(c *Config) { c.DiskAccess = 0 },
		func(c *Config) { c.RUSetSize = 0 },
		func(c *Config) { c.Prefetch = true; c.PrefetchBuffersPerProc = 0 },
		func(c *Config) { c.Lead = -1 },
		func(c *Config) { c.MinPrefetchTime = -1 },
		func(c *Config) { c.ComputeMean = -1 },
		func(c *Config) { c.Sync = barrier.EveryNPerProc; c.SyncEveryPerProc = 0 },
		func(c *Config) { c.Sync = barrier.EveryNTotal; c.SyncEveryTotal = 0 },
		func(c *Config) { c.Pattern.Procs = 3 },
		// A disk kill outside the killed rack takes the last disk: every
		// read would retry forever.
		func(c *Config) {
			*c = rackKillConfig(pattern.GFP, 2, 3)
			c.Fault.KillAt, c.Fault.KillDisk = sim.Second, 0
		},
		// A processor kill outside the killed rack takes the last
		// processor: the run would end with blocks unread.
		func(c *Config) {
			*c = rackKillConfig(pattern.GW, 3, 3)
			c.NodeFault.KillAt, c.NodeFault.KillNode = sim.Second, 0
		},
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(pattern.GW)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	// Kills inside the killed rack leave the other rack alive.
	inside := rackKillConfig(pattern.GFP, 2, 3)
	inside.Fault.KillAt, inside.Fault.KillDisk = sim.Second, 1
	inside.NodeFault.KillAt, inside.NodeFault.KillNode = sim.Second, 1
	if err := inside.Validate(); err != nil {
		t.Errorf("kills inside the killed rack rejected: %v", err)
	}
}

// rackKillConfig is a small run split into two racks, rack1 (the upper
// half of the disks and processors) killed at 100 ms under a barrier
// timeout.
func rackKillConfig(kind pattern.Kind, procs, disks int) Config {
	cfg := smallConfig(kind, procs, 15*procs)
	cfg.Disks = disks
	cfg.NodeFault.BarrierTimeout = 50 * sim.Millisecond
	cfg.Domain = fault.DomainConfig{
		Domains:    fault.SplitDomains("rack", disks, procs, 2),
		KillDomain: "rack1", KillAt: 100 * sim.Millisecond,
	}
	return cfg
}

func TestCacheCapacity(t *testing.T) {
	cfg := DefaultConfig(pattern.GW)
	if cfg.CacheCapacity() != 20 {
		t.Fatalf("no-prefetch capacity = %d, want 20", cfg.CacheCapacity())
	}
	cfg.Prefetch = true
	if cfg.CacheCapacity() != 80 {
		t.Fatalf("prefetch capacity = %d, want 80", cfg.CacheCapacity())
	}
}

func TestBalancedComputeMean(t *testing.T) {
	if BalancedComputeMean(pattern.LW) != 10*sim.Millisecond {
		t.Fatal("lw should balance at 10ms")
	}
	if BalancedComputeMean(pattern.GW) != 30*sim.Millisecond {
		t.Fatal("others should balance at 30ms")
	}
}

func TestLabel(t *testing.T) {
	cfg := DefaultConfig(pattern.GW)
	cfg.ComputeMean = 0
	cfg.Prefetch = true
	if got := cfg.Label(); got != "gw/none/iobound/pf" {
		t.Fatalf("Label = %q", got)
	}
}

func TestIdleKindStrings(t *testing.T) {
	if IdleSync.String() != "sync" || IdleOwnIO.String() != "own-io" || IdleRemoteIO.String() != "remote-io" {
		t.Fatal("idle kind names wrong")
	}
	if IdleKind(9).String() == "" {
		t.Fatal("unknown idle kind should format")
	}
}

func TestGWNoPrefetchAllMisses(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.GW, 4, 80)
	cfg.ComputeMean = 0
	r := MustRun(cfg)
	// Every block read exactly once by one process: without prefetching
	// and with disjoint accesses, (nearly) every access is a miss.
	if r.Cache.Misses != 80 {
		t.Fatalf("misses = %d, want 80", r.Cache.Misses)
	}
	if r.HitRatio() != 0 {
		t.Fatalf("hit ratio = %v, want 0", r.HitRatio())
	}
	if got := int(r.ReadTime.N()); got != 80 {
		t.Fatalf("read samples = %d", got)
	}
	// Each read takes at least the disk access time.
	if r.ReadTime.Min() < 30 {
		t.Fatalf("min read %vms < disk access", r.ReadTime.Min())
	}
	if r.TotalTime <= 0 {
		t.Fatal("zero total time")
	}
}

func TestGWPrefetchImprovesEverything(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.GW, 4, 200)
	base := MustRun(cfg)
	cfg.Prefetch = true
	pf := MustRun(cfg)
	if pf.HitRatio() <= 0.5 {
		t.Fatalf("prefetch hit ratio = %v, want > 0.5", pf.HitRatio())
	}
	if pf.ReadTime.Mean() >= base.ReadTime.Mean() {
		t.Fatalf("read time did not improve: %v -> %v", base.ReadTime.Mean(), pf.ReadTime.Mean())
	}
	if pf.TotalTime >= base.TotalTime {
		t.Fatalf("total time did not improve: %v -> %v", base.TotalTime, pf.TotalTime)
	}
	if pf.Cache.PrefetchesIssued == 0 {
		t.Fatal("no prefetches issued")
	}
	// The disks serve no more requests under prefetching (no wasted
	// blocks): every block still fetched exactly once.
	total := pf.Cache.Misses + pf.Cache.PrefetchesIssued
	if total != 200 {
		t.Fatalf("fetches = %d, want 200", total)
	}
}

func TestLWInterprocessLocality(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.LW, 4, 50)
	cfg.ComputeMean = 10 * sim.Millisecond
	base := MustRun(cfg)
	// Without prefetching, lw already gets hits from interprocess
	// locality: one process fetches, the rest hit.
	if base.HitRatio() < 0.5 {
		t.Fatalf("lw base hit ratio = %v, want substantial", base.HitRatio())
	}
	cfg.Prefetch = true
	pf := MustRun(cfg)
	// With prefetching nearly every access hits (paper: 1 miss out of
	// 2000 accesses; a handful of re-fetches from prefetch-pool
	// recycling are tolerated here).
	if pf.Cache.Misses > 15 {
		t.Fatalf("lw prefetch misses = %d, want <= 15 of %d", pf.Cache.Misses, pf.Cache.Accesses())
	}
	if pf.HitRatio() < 0.9 {
		t.Fatalf("lw prefetch hit ratio = %v", pf.HitRatio())
	}
}

func TestSyncStylesRun(t *testing.T) {
	t.Parallel()
	for _, kind := range pattern.Kinds {
		for _, style := range barrier.Styles {
			if kind == pattern.LW && style == barrier.PerPortion {
				continue // excluded in the paper (footnote 3)
			}
			cfg := smallConfig(kind, 4, 60)
			cfg.Sync = style
			cfg.SyncEveryPerProc = 5
			cfg.SyncEveryTotal = 20
			cfg.ComputeMean = 5 * sim.Millisecond
			cfg.Prefetch = true
			r := MustRun(cfg)
			if r.TotalTime <= 0 {
				t.Fatalf("%v/%v: no time elapsed", kind, style)
			}
			reads := 0
			for _, ps := range r.PerProc {
				reads += ps.Reads
			}
			want := 60
			if kind.Local() {
				want = 4 * 60
			}
			if reads != want {
				t.Fatalf("%v/%v: %d reads, want %d", kind, style, reads, want)
			}
			if style != barrier.None && r.SyncTime.N() == 0 {
				t.Fatalf("%v/%v: no sync samples", kind, style)
			}
			if style == barrier.None && r.SyncTime.N() != 0 {
				t.Fatalf("%v/%v: unexpected sync samples", kind, style)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() string {
		cfg := smallConfig(pattern.GRP, 4, 100)
		cfg.Sync = barrier.EveryNPerProc
		cfg.SyncEveryPerProc = 5
		cfg.Prefetch = true
		r := MustRun(cfg)
		return fmt.Sprintf("%v %v %v %v %v", r.TotalTime, r.ReadTime.Mean(),
			r.HitRatio(), r.Cache.PrefetchesIssued, r.DiskResponse.Mean())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic runs:\n%s\n%s", a, b)
	}
}

func TestSeedChangesComputeDraws(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.GW, 4, 100)
	cfg.ComputeMean = 20 * sim.Millisecond
	a := MustRun(cfg)
	cfg.Seed = 99
	b := MustRun(cfg)
	if a.TotalTime == b.TotalTime {
		t.Fatal("different seeds gave identical total time")
	}
}

// TestTraceEventsEmitted checks the span trace a run records: spans in
// end-time order on each track, one read span per block read whose Args number the
// reads 0..n-1 in start order, prefetch and barrier spans, and hit and
// miss counters that sum to the reads.
func TestTraceEventsEmitted(t *testing.T) {
	t.Parallel()
	rec := obs.NewRecorder()
	cfg := smallConfig(pattern.GW, 2, 20)
	cfg.Prefetch = true
	cfg.Sync = barrier.EveryNPerProc
	cfg.SyncEveryPerProc = 5
	cfg.Obs = rec
	MustRun(cfg)
	byKind := map[obs.SpanKind]int{}
	starts := make([]int64, 20) // start time by read ordinal
	for i := range starts {
		starts[i] = -1
	}
	lastEnd := map[obs.Track]int64{}
	for _, s := range rec.Spans {
		byKind[s.Kind]++
		if s.End < lastEnd[s.Track] {
			t.Fatalf("span end times went backwards on %v", s.Track)
		}
		lastEnd[s.Track] = s.End
		if s.Kind == obs.SpanRead {
			if s.Arg < 0 || s.Arg >= 20 || starts[s.Arg] >= 0 {
				t.Fatalf("read ordinal %d out of range or repeated", s.Arg)
			}
			starts[s.Arg] = s.Start
		}
	}
	if byKind[obs.SpanRead] != 20 {
		t.Fatalf("read spans: %v", byKind)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			t.Fatalf("read %d starts at %d, before read %d at %d", i, starts[i], i-1, starts[i-1])
		}
	}
	if byKind[obs.SpanPrefetchAction] == 0 {
		t.Fatalf("no prefetch spans: %v", byKind)
	}
	if byKind[obs.SpanSyncWait] == 0 || byKind[obs.SpanBarrierGen] == 0 {
		t.Fatalf("no sync spans: %v", byKind)
	}
	c := &rec.Counters
	if c[obs.CtrCacheMisses]+c[obs.CtrCacheReadyHits]+c[obs.CtrCacheUnreadyHits] != 20 {
		t.Fatalf("access outcomes don't sum to reads: %v", c)
	}
}

func TestPrefetchLeadReducesHitWaitRaisesMisses(t *testing.T) {
	t.Parallel()
	mk := func(lead int) *Result {
		cfg := smallConfig(pattern.GW, 4, 200)
		cfg.Prefetch = true
		cfg.Lead = lead
		cfg.ComputeMean = 10 * sim.Millisecond
		return MustRun(cfg)
	}
	base, lead := mk(0), mk(40)
	if lead.MissRatio() <= base.MissRatio() {
		t.Fatalf("lead should raise miss ratio: %v -> %v", base.MissRatio(), lead.MissRatio())
	}
}

func TestMinPrefetchTimeReducesActions(t *testing.T) {
	t.Parallel()
	mk := func(mpt sim.Duration) *Result {
		cfg := smallConfig(pattern.GW, 4, 200)
		cfg.Prefetch = true
		cfg.ComputeMean = 0
		cfg.MinPrefetchTime = mpt
		return MustRun(cfg)
	}
	// A threshold longer than any disk wait suppresses every action whose
	// idle-period deadline is known.
	base, limited := mk(0), mk(sim.Second)
	if limited.PrefetchActionTime.N() >= base.PrefetchActionTime.N() {
		t.Fatalf("min prefetch time did not reduce actions: %d -> %d",
			base.PrefetchActionTime.N(), limited.PrefetchActionTime.N())
	}
}

func TestPerNodePrefetchLimit(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.LFP, 4, 60)
	cfg.Prefetch = true
	cfg.PerNodePrefetchLimit = true
	r := MustRun(cfg)
	if r.TotalTime <= 0 || r.Cache.PrefetchesIssued == 0 {
		t.Fatal("per-node limited run degenerate")
	}
}

func TestRUSetSizeLargerThanOne(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.GW, 4, 80)
	cfg.RUSetSize = 3
	r := MustRun(cfg)
	if r.TotalTime <= 0 {
		t.Fatal("RU=3 run degenerate")
	}
	if cfg.CacheCapacity() != 12 {
		t.Fatalf("capacity with RU=3: %d", cfg.CacheCapacity())
	}
}

func TestResultStringBothModes(t *testing.T) {
	cfg := smallConfig(pattern.GW, 2, 20)
	cfg.Sync = barrier.EveryNPerProc
	cfg.SyncEveryPerProc = 5
	if s := MustRun(cfg).String(); len(s) == 0 {
		t.Fatal("empty result string")
	}
	cfg.Prefetch = true
	if s := MustRun(cfg).String(); len(s) == 0 {
		t.Fatal("empty prefetch result string")
	}
}

func TestNormalizedTotalMillis(t *testing.T) {
	r := &Result{TotalTime: 200 * sim.Millisecond}
	if got := r.NormalizedTotalMillis(20); got != 10 {
		t.Fatalf("normalized = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("divisor 0 did not panic")
		}
	}()
	r.NormalizedTotalMillis(0)
}

func TestPerProcAccounting(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.LFP, 4, 40)
	cfg.Prefetch = true
	r := MustRun(cfg)
	for node, ps := range r.PerProc {
		if int(ps.Node) != node {
			t.Fatalf("node field mismatch at %d", node)
		}
		if ps.Reads != 40 {
			t.Fatalf("node %d reads %d, want 40", node, ps.Reads)
		}
		if ps.Finish <= 0 {
			t.Fatalf("node %d finish %v", node, ps.Finish)
		}
		if ps.ReadTime.N() != 40 {
			t.Fatalf("node %d read samples %d", node, ps.ReadTime.N())
		}
	}
}

func TestMustRunPanicsOnBadConfig(t *testing.T) {
	cfg := DefaultConfig(pattern.GW)
	cfg.Procs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("MustRun did not panic")
		}
	}()
	MustRun(cfg)
}

func TestHitWaitBounded(t *testing.T) {
	t.Parallel()
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.Prefetch = true
	r := MustRun(cfg)
	// A hit-wait can never exceed the worst disk response time.
	if r.HitWaitUnready.N() > 0 && r.HitWaitUnready.Max() > r.DiskResponse.Max() {
		t.Fatalf("hit-wait %vms exceeds max disk response %vms",
			r.HitWaitUnready.Max(), r.DiskResponse.Max())
	}
}

func TestReadyPlusUnreadyPlusMissesEqualsReads(t *testing.T) {
	t.Parallel()
	for _, kind := range pattern.Kinds {
		cfg := smallConfig(kind, 4, 60)
		cfg.Prefetch = true
		r := MustRun(cfg)
		if got := r.Cache.Accesses(); got != int64(r.ReadTime.N()) {
			t.Fatalf("%v: accesses %d != reads %d", kind, got, r.ReadTime.N())
		}
		frac := r.ReadyHitFraction() + r.UnreadyHitFraction() + r.MissRatio()
		if frac < 0.999 || frac > 1.001 {
			t.Fatalf("%v: fractions sum to %v", kind, frac)
		}
	}
}

func TestPredictorModes(t *testing.T) {
	t.Parallel()
	for _, pk := range []prefetch.Kind{prefetch.OBL, prefetch.SEQ, prefetch.GAPS} {
		cfg := smallConfig(pattern.GW, 4, 200)
		cfg.Prefetch = true
		cfg.Predictor = pk
		r := MustRun(cfg)
		if r.Cache.Accesses() != 200 {
			t.Fatalf("%v: accesses = %d", pk, r.Cache.Accesses())
		}
		if pk != prefetch.OBL && r.Cache.PrefetchesIssued == 0 {
			t.Errorf("%v: no prefetches on a sequential global stream", pk)
		}
		// Determinism with predictors too.
		r2 := MustRun(cfg)
		if r.TotalTime != r2.TotalTime {
			t.Errorf("%v: nondeterministic", pk)
		}
	}
}

func TestPredictorMispredictionsEvicted(t *testing.T) {
	t.Parallel()
	// lfp has portion gaps, so OBL overshoots at each portion end.
	cfg := smallConfig(pattern.LFP, 4, 60)
	cfg.Prefetch = true
	cfg.Predictor = prefetch.OBL
	r := MustRun(cfg)
	wasted := r.Cache.PrefetchesIssued - r.Cache.PrefetchesConsumed
	if wasted == 0 {
		t.Fatal("OBL on lfp should waste prefetches at portion ends")
	}
}

// TestFileBlocksPastInt32Rejected: the cache keys frames by int32 block
// ids, so New refuses a pattern whose file passes math.MaxInt32 blocks;
// running it would alias blocks whose ids differ by 2^32.
func TestFileBlocksPastInt32Rejected(t *testing.T) {
	cfg := smallConfig(pattern.LFP, 4, 8)
	cfg.Prefetch = true
	cfg.Pattern.PortionGap = 1 << 30 // FileBlocks 17,179,869,216
	cfg.AuditEvery = sim.Millisecond
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "block ids") {
		t.Fatalf("Run = %v, want an error naming block ids", err)
	}
}

func TestLeadWithPredictorRejected(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 100)
	cfg.Prefetch = true
	cfg.Predictor = prefetch.SEQ
	cfg.Lead = 5
	if _, err := Run(cfg); err == nil {
		t.Fatal("lead + predictor accepted")
	}
}
