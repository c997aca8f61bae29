package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/barrier"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/sim"
)

func TestNodeFaultConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NodeFault.StallRate = 1.0 },
		func(c *Config) { c.NodeFault.StragglerFactor = 0.5 },
		func(c *Config) { c.NodeFault.StragglerFactor = 2; c.NodeFault.StragglerNode = 4 },
		func(c *Config) { c.NodeFault.KillAt = sim.Second; c.NodeFault.KillNode = 4 },
		func(c *Config) {
			c.Procs = 1
			c.Disks = 1
			c.Pattern.Procs = 1
			c.NodeFault = fault.NodeConfig{KillAt: sim.Second}
		},
		func(c *Config) { c.NodeFault.SqueezeAt = sim.Second },
		func(c *Config) { c.NodeFault.BarrierTimeout = -sim.Millisecond },
		func(c *Config) { c.AuditEvery = -sim.Millisecond },
	}
	for i, mutate := range bad {
		cfg := smallConfig(pattern.GW, 4, 200)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad node-fault config accepted", i)
		}
	}
}

// A clean run must not touch the node-fault machinery: no injector and
// no counters beyond the unconditional AliveProcs.
func TestCleanRunHasInertNodeFaultPath(t *testing.T) {
	e, err := New(smallConfig(pattern.GW, 4, 200))
	if err != nil {
		t.Fatal(err)
	}
	if e.ninj != nil {
		t.Fatal("node injector created for a zero-value config")
	}
	res := e.Run()
	n := res.Faults.Node
	if n.Stalls != 0 || n.DeadProcs != 0 || n.TakeoverReads != 0 ||
		n.QuorumReleases != 0 || n.Excisions != 0 || n.FramesRetired != 0 ||
		n.ThrottledPrefetches != 0 {
		t.Fatalf("node-fault counters moved on a clean run: %+v", n)
	}
	if n.AliveProcs != 4 {
		t.Fatalf("AliveProcs = %d, want 4", n.AliveProcs)
	}
}

// A persistent straggler slows the whole barrier-coupled computation,
// monotonically in its slowdown factor.
func TestStragglerMonotone(t *testing.T) {
	var prev sim.Duration
	for i, factor := range []float64{0, 2, 4, 8} {
		cfg := smallConfig(pattern.LFP, 4, 40)
		cfg.Sync = barrier.EveryNPerProc
		nc := fault.NodeConfig{}
		if factor > 0 {
			nc = fault.NodeConfig{Seed: 1, StragglerFactor: factor, StragglerNode: 3}
		}
		cfg.NodeFault = nc
		res := MustRun(cfg)
		if i > 0 && res.TotalTime <= prev {
			t.Fatalf("factor %g did not slow the run: %v vs %v", factor, res.TotalTime, prev)
		}
		prev = res.TotalTime
	}
}

// Transient stalls are injected, counted, and fully deterministic; a
// repeat with a sink gets the node streams' draws and stalls counted.
func TestStallsDeterministic(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.Prefetch = true
	cfg.NodeFault = fault.NodeConfig{Seed: 7, StallRate: 0.05}
	sink := &obs.CounterSink{}
	observed := cfg
	observed.Obs = sink
	a, b := MustRun(cfg), MustRun(observed)
	if a.Faults.Node.Stalls == 0 {
		t.Fatal("5% stall rate injected no stalls")
	}
	if a.TotalTime != b.TotalTime || a.Faults != b.Faults || a.Cache != b.Cache {
		t.Fatalf("stalled run diverged: %v/%v, %+v vs %+v", a.TotalTime, b.TotalTime, a.Faults, b.Faults)
	}
	if c := sink.Snapshot(); c[obs.CtrNodeStalls] != a.Faults.Node.Stalls || c[obs.CtrFaultDraws] <= c[obs.CtrNodeStalls] {
		t.Fatalf("sink counted %d stalls in %d draws; the run stalled %d times",
			c[obs.CtrNodeStalls], c[obs.CtrFaultDraws], a.Faults.Node.Stalls)
	}
	// Stalls cost time.
	clean := smallConfig(pattern.GW, 4, 200)
	clean.Prefetch = true
	if cres := MustRun(clean); a.TotalTime <= cres.TotalTime {
		t.Fatalf("stalls did not slow the run: %v vs clean %v", a.TotalTime, cres.TotalTime)
	}
}

// Killing a processor mid-run under a barrier-coupled local pattern:
// with a quorum timeout the run completes the entire reference string,
// the watchdog excises the corpse, survivors take over its blocks, and
// the engine records the kill as a wrapped fault.ErrProcDead.
func TestProcKillQuorumCompletes(t *testing.T) {
	cfg := smallConfig(pattern.LFP, 4, 50)
	cfg.Sync = barrier.EveryNPerProc
	cfg.NodeFault = fault.NodeConfig{
		Seed:           1,
		KillAt:         400 * sim.Millisecond,
		KillNode:       0,
		BarrierTimeout: 100 * sim.Millisecond,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	reads := 0
	for _, ps := range res.PerProc {
		reads += ps.Reads
	}
	if reads != 4*50 {
		t.Fatalf("%d of %d reads completed", reads, 4*50)
	}
	n := res.Faults.Node
	if n.DeadProcs != 1 || n.AliveProcs != 3 {
		t.Fatalf("dead/alive = %d/%d, want 1/3", n.DeadProcs, n.AliveProcs)
	}
	if n.TakeoverReads == 0 {
		t.Fatal("survivors took over no reads")
	}
	if n.QuorumReleases == 0 || n.Excisions == 0 {
		t.Fatalf("watchdog never acted: %d releases, %d excisions", n.QuorumReleases, n.Excisions)
	}
	if err := e.KillError(); err == nil || !errors.Is(err, fault.ErrProcDead) {
		t.Fatalf("kill error %v does not wrap fault.ErrProcDead", err)
	}
	// The victim's stats freeze at its death; survivors read more than
	// their own share.
	if res.PerProc[0].Reads >= 50 {
		t.Fatalf("victim read %d blocks, want < 50", res.PerProc[0].Reads)
	}
}

// A processor kill that lands while its victim is parked at a
// generation barrier takes effect at the victim's next read boundary,
// not at the barrier's release: the loop head checks for a kill once,
// before the generation catch-up. The pins were generated on the
// goroutine engine, which cnodes replaced; a cnode that rechecked the
// kill after each catch-up barrier died at 203.098 ms.
func TestKillAfterCatchUpBarrier(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 64)
	cfg.Sync = barrier.EveryNTotal
	cfg.SyncEveryTotal = 8
	cfg.NodeFault = fault.NodeConfig{
		Seed:           1,
		KillAt:         160 * sim.Millisecond,
		KillNode:       2,
		BarrierTimeout: 50 * sim.Millisecond,
	}
	res := MustRun(cfg)
	if got := res.Faults.Node.KilledAtMillis; got != 241.288 {
		t.Errorf("KilledAtMillis = %v, want 241.288", got)
	}
	if got := res.TotalTime; got != 1448193*sim.Microsecond {
		t.Errorf("TotalTime = %v, want 1448193µs", got)
	}
}

// The same kill without a barrier timeout is the classic pathology the
// quorum release exists to fix: every survivor blocks forever at the
// next barrier and the kernel's deadlock detector names them.
func TestProcKillWithoutTimeoutDeadlocks(t *testing.T) {
	cfg := smallConfig(pattern.LFP, 4, 50)
	cfg.Sync = barrier.EveryNPerProc
	cfg.NodeFault = fault.NodeConfig{Seed: 1, KillAt: 400 * sim.Millisecond}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kill without barrier timeout did not deadlock")
		}
		derr, ok := r.(*sim.DeadlockError)
		if !ok || !strings.Contains(derr.Error(), "barrier release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	MustRun(cfg)
}

// With prefetching on, a never-releasing barrier is not a detectable
// deadlock but an unbounded buffer hunt: the oracle keeps nominating
// blocks, every allocation fails, and each failed action advances
// virtual time a few microseconds — forever. The backpressure gate
// bounds the hunt (no free prefetch frame ⇒ park on the event), which
// turns the pathology back into a deadlock the kernel can name.
func TestBackpressureBoundsBufferHunt(t *testing.T) {
	cfg := smallConfig(pattern.LFP, 4, 50)
	cfg.Sync = barrier.EveryNPerProc
	cfg.Prefetch = true
	cfg.NodeFault = fault.NodeConfig{
		Seed:         1,
		KillAt:       400 * sim.Millisecond,
		Backpressure: true,
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("gated kill run did not deadlock cleanly")
		}
		if _, ok := r.(*sim.DeadlockError); !ok {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	MustRun(cfg)
}

// A global pattern self-schedules around a killed processor: the
// survivors drain the shared reference string with no explicit
// takeover, and every block is still read exactly once.
func TestGlobalKillRedistributes(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.Sync = barrier.EveryNPerProc
	cfg.Prefetch = true
	cfg.NodeFault = fault.NodeConfig{
		Seed:           1,
		KillAt:         300 * sim.Millisecond,
		KillNode:       2,
		BarrierTimeout: 100 * sim.Millisecond,
	}
	res := MustRun(cfg)
	reads := 0
	for _, ps := range res.PerProc {
		reads += ps.Reads
	}
	if reads != 200 {
		t.Fatalf("%d of 200 reads completed", reads)
	}
	n := res.Faults.Node
	if n.DeadProcs != 1 {
		t.Fatalf("DeadProcs = %d", n.DeadProcs)
	}
	if n.TakeoverReads != 0 {
		t.Fatalf("global pattern recorded %d takeover reads, want 0 (self-scheduling)", n.TakeoverReads)
	}
}

// The capacity squeeze permanently retires idle prefetch frames: the
// count is recorded, the cache stays internally consistent, and the
// run still completes.
func TestSqueezeRetiresFrames(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.Prefetch = true
	cfg.NodeFault = fault.NodeConfig{
		Seed:          1,
		SqueezeAt:     200 * sim.Millisecond,
		SqueezeFrames: 4,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	// The squeeze only takes frames that are idle at squeeze time, so it
	// may retire fewer than requested — but never zero here, and the
	// result counter must agree with the cache's own.
	retired := res.Faults.Node.FramesRetired
	if retired == 0 || retired > 4 {
		t.Fatalf("FramesRetired = %d, want 1..4", retired)
	}
	if got := e.bcache.Retired(); got != retired {
		t.Fatalf("cache retired %d frames, result says %d", got, retired)
	}
	if err := e.bcache.Audit(); err != nil {
		t.Fatalf("cache inconsistent after squeeze: %v", err)
	}
	reads := 0
	for _, ps := range res.PerProc {
		reads += ps.Reads
	}
	if reads != 200 {
		t.Fatalf("%d of 200 reads completed", reads)
	}
}

// Under a deep squeeze with backpressure, the prefetch scheduler
// throttles instead of hunting: throttled attempts are counted and the
// run completes deterministically.
func TestBackpressureThrottlesUnderSqueeze(t *testing.T) {
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.Prefetch = true
	cfg.NodeFault = fault.NodeConfig{
		Seed:          1,
		SqueezeAt:     100 * sim.Millisecond,
		SqueezeFrames: 11, // leave one prefetch frame of 12
		Backpressure:  true,
	}
	a, b := MustRun(cfg), MustRun(cfg)
	if a.Faults.Node.ThrottledPrefetches == 0 {
		t.Fatal("deep squeeze with backpressure throttled nothing")
	}
	if a.TotalTime != b.TotalTime || a.Faults != b.Faults {
		t.Fatalf("throttled run diverged: %v/%v", a.TotalTime, b.TotalTime)
	}
	reads := 0
	for _, ps := range a.PerProc {
		reads += ps.Reads
	}
	if reads != 200 {
		t.Fatalf("%d of 200 reads completed", reads)
	}
	// The gate reduces fruitless buffer hunts: without it, the same
	// squeeze must record at least as many prefetch attempts.
	ungated := cfg
	ungated.NodeFault.Backpressure = false
	u := MustRun(ungated)
	attempts := func(r *Result) int {
		n := 0
		for _, ps := range r.PerProc {
			n += int(ps.PrefetchAttempts)
		}
		return n
	}
	if attempts(u) < attempts(a) {
		t.Fatalf("gating increased attempts: %d gated vs %d ungated", attempts(a), attempts(u))
	}
}

// Regression (PR 3 interaction): a processor whose demand read dies
// with its disk must not hang a subsequent barrier — the read remaps
// to a survivor, the processor arrives late but arrives, and the
// barrier-coupled run completes without any quorum machinery.
func TestDiskKillDoesNotHangBarrier(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		cfg := smallConfig(pattern.GW, 4, 200)
		cfg.Sync = barrier.EveryNPerProc
		cfg.Prefetch = prefetch
		cfg.Fault = fault.Config{Seed: 3, KillAt: 300 * sim.Millisecond, KillDisk: 1}
		res := MustRun(cfg)
		reads := 0
		for _, ps := range res.PerProc {
			reads += ps.Reads
		}
		if reads != 200 {
			t.Fatalf("prefetch=%v: %d of 200 reads completed", prefetch, reads)
		}
		if res.Faults.AliveDisks != 3 || res.Faults.DegradedReads == 0 {
			t.Fatalf("prefetch=%v: disk kill not absorbed: %+v", prefetch, res.Faults)
		}
		if res.Faults.Node.QuorumReleases != 0 {
			t.Fatalf("prefetch=%v: disk death should not need quorum releases", prefetch)
		}
	}
}

// The chaos composition — straggler, stalls, kill, quorum timeouts,
// squeeze, backpressure, disk faults — still completes every read and
// replays identically.
func TestChaosCompositionDeterministic(t *testing.T) {
	cfg := smallConfig(pattern.LFP, 4, 50)
	cfg.Sync = barrier.EveryNPerProc
	cfg.Prefetch = true
	cfg.Fault = fault.Config{Seed: 5, ReadErrorRate: 0.03}
	cfg.NodeFault = fault.NodeConfig{
		Seed:            5,
		StragglerFactor: 4,
		StragglerNode:   3,
		StallRate:       0.02,
		KillAt:          500 * sim.Millisecond,
		KillNode:        1,
		BarrierTimeout:  150 * sim.Millisecond,
		SqueezeAt:       250 * sim.Millisecond,
		SqueezeFrames:   4,
		Backpressure:    true,
	}
	cfg.AuditEvery = 10 * sim.Millisecond
	a, b := MustRun(cfg), MustRun(cfg)
	if a.TotalTime != b.TotalTime || a.Faults != b.Faults || a.Cache != b.Cache {
		t.Fatalf("chaos run diverged: %v vs %v, %+v vs %+v", a.TotalTime, b.TotalTime, a.Faults, b.Faults)
	}
	reads := 0
	for _, ps := range a.PerProc {
		reads += ps.Reads
	}
	if reads != 4*50 {
		t.Fatalf("%d of %d reads completed", reads, 4*50)
	}
	if a.Faults.Node.DeadProcs != 1 || a.Faults.Node.TakeoverReads == 0 {
		t.Fatalf("kill not absorbed: %+v", a.Faults.Node)
	}
}

// TestChaosAuditSmoke combines disk faults (transient errors, spikes,
// stuck requests under a timeout), a processor kill with
// quorum-released barriers, stalls, prefetching, and the runtime
// invariant auditor in one run. The assertions are completion plus the
// accounting identities; the auditor supplies the rest.
func TestChaosAuditSmoke(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(pattern.LW)
	cfg.Procs = 4
	cfg.Disks = 3
	cfg.Pattern.Procs = 4
	cfg.Pattern.BlocksPerProc = 40
	cfg.Pattern.TotalBlocks = 160
	cfg.Prefetch = true
	cfg.Sync = barrier.EveryNPerProc
	cfg.SyncEveryPerProc = 5
	cfg.AuditEvery = 3 * sim.Millisecond
	cfg.Fault = fault.Config{
		Seed:            21,
		ReadErrorRate:   0.05,
		SpikeRate:       0.1,
		SpikeMultiplier: 4,
		StuckRate:       0.02,
		Timeout:         150 * sim.Millisecond,
	}
	cfg.NodeFault = fault.NodeConfig{
		Seed:           13,
		KillAt:         250 * sim.Millisecond,
		KillNode:       2,
		BarrierTimeout: 80 * sim.Millisecond,
		StallRate:      0.02,
	}
	r := MustRun(cfg)
	// Failed fills are retried through the cache, so accesses can
	// exceed the block count — but never fall short of it.
	wantReads := cfg.Procs * cfg.Pattern.BlocksPerProc
	if got := int(r.Cache.Accesses()); got < wantReads {
		t.Fatalf("accesses %d, want at least %d", got, wantReads)
	}
	if r.Faults.Node.DeadProcs != 1 {
		t.Fatalf("DeadProcs = %d, want 1", r.Faults.Node.DeadProcs)
	}
}

// Seeded mid-run corruption of engine state must trip the invariant
// auditor with the named invariant, not surface as a wrong number at
// the end of the run. The disk, cache and barrier packages seed the
// corruptions their exported API cannot reach — a lost disk hold, a
// fill source kept by an unpinned frame, barrier-counts — in their own
// audit tests.
func TestAuditorCatchesSeededCorruption(t *testing.T) {
	cases := []struct {
		invariant, want string // want: a phrase of the violation's cause
		prefetch        bool
		corrupt         func(e *Engine)
	}{
		{"cursor-bounds", "global cursor -5", false, func(e *Engine) { e.globalCursor = -5 }},
		{"barrier-membership", "still a barrier member", false, func(e *Engine) { e.cnodes[0].finished = true }},
		{"disk-queues", "lost the disk's hold", false, func(e *Engine) {
			// A record reset to its free-list state while still queued,
			// as a recycler that ignored the disk's hold would leave
			// it; it waits behind the first submission's transfer.
			e.disks.Submit(0, 0, 0, false)
			*e.disks.Submit(0, 1, 0, false) = disk.Request{}
		}},
		{"cache-consistent", "prefetched-unused buffer", true, func(e *Engine) {
			// A pin on a prefetched block that no read has consumed.
			for b := 0; b < e.pat.FileBlocks; b++ {
				if buf := e.bcache.Lookup(b); buf != nil && buf.Prefetched() {
					e.bcache.Retain(buf)
					return
				}
			}
			panic("no unconsumed prefetch to pin")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.invariant, func(t *testing.T) {
			cfg := smallConfig(pattern.GW, 4, 200)
			cfg.Sync = barrier.EveryNPerProc
			cfg.Prefetch = tc.prefetch
			cfg.AuditEvery = 5 * sim.Millisecond
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.k.Schedule(sim.Time(100*sim.Millisecond), func() { tc.corrupt(e) })
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("corruption not caught")
				}
				v, ok := r.(*audit.Violation)
				if !ok {
					t.Fatalf("panic value %T, want *audit.Violation", r)
				}
				if v.Invariant != tc.invariant {
					t.Fatalf("invariant %q tripped, want %q", v.Invariant, tc.invariant)
				}
				if !strings.Contains(v.Err.Error(), tc.want) {
					t.Fatalf("violation %v, want one mentioning %q", v.Err, tc.want)
				}
			}()
			e.Run()
		})
	}
}

// The node-fault lines appear in the rendered Result exactly when the
// config enables node faults, protecting the fault-free golden output.
func TestResultStringNodeFaultLines(t *testing.T) {
	clean := MustRun(smallConfig(pattern.GW, 4, 200))
	if s := clean.String(); strings.Contains(s, "node faults") || strings.Contains(s, "quorum") {
		t.Fatalf("clean result mentions node faults:\n%s", s)
	}
	cfg := smallConfig(pattern.GW, 4, 200)
	cfg.NodeFault = fault.NodeConfig{Seed: 1, StallRate: 0.05}
	s := MustRun(cfg).String()
	if !strings.Contains(s, "node faults") || !strings.Contains(s, "quorum") {
		t.Fatalf("node-fault result missing summary lines:\n%s", s)
	}
}
