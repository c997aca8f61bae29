package core

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/sim"
)

// resultJSON runs cfg and renders the entire Result as JSON.
func resultJSON(t *testing.T, cfg Config) string {
	t.Helper()
	return marshalResult(t, MustRun(cfg))
}

// marshalResult renders the entire Result — every statistic,
// histogram, counter, and per-proc record — as JSON, so two runs can
// be compared byte for byte.
func marshalResult(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// compactConfigs is a matrix over everything the compact engine
// supports: both global patterns, every sync style, prefetching off /
// oracle / on-the-fly predictors, I/O-bound and balanced computation.
func compactConfigs() map[string]Config {
	m := map[string]Config{}
	base := func(kind pattern.Kind) Config {
		cfg := DefaultConfig(kind)
		cfg.Procs = 8
		cfg.Disks = 4
		cfg.Pattern.Procs = 8
		cfg.Pattern.TotalBlocks = 96
		cfg.CompactNodes = true
		return cfg
	}
	m["gw/plain"] = base(pattern.GW)
	m["gfp/plain"] = base(pattern.GFP)

	c := base(pattern.GW)
	c.Prefetch = true
	m["gw/oracle"] = c

	c = base(pattern.GW)
	c.Prefetch = true
	c.Predictor = predict.SEQ
	m["gw/seq"] = c

	c = base(pattern.GFP)
	c.Prefetch = true
	c.Sync = barrier.EveryNPerProc
	c.SyncEveryPerProc = 3
	m["gfp/everyper"] = c

	c = base(pattern.GW)
	c.Prefetch = true
	c.Sync = barrier.EveryNTotal
	c.SyncEveryTotal = 24
	m["gw/everytotal"] = c

	c = base(pattern.GFP)
	c.Sync = barrier.PerPortion
	m["gfp/perportion"] = c

	c = base(pattern.GW)
	c.Prefetch = true
	c.ComputeMean = 0
	c.MinPrefetchTime = 5 * sim.Millisecond
	m["gw/iobound-minpf"] = c

	c = base(pattern.GW)
	c.Prefetch = true
	c.PerNodePrefetchLimit = true
	c.AuditEvery = 5 * sim.Millisecond
	m["gw/audited"] = c
	return m
}

// TestCompactDeterminism is the compact engine's core contract: the
// same configuration produces byte-identical Results on repeated runs.
func TestCompactDeterminism(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if first, again := resultJSON(t, cfg), resultJSON(t, cfg); again != first {
				t.Fatal("repeat run differs")
			}
		})
	}
}

// TestCompactConservation checks workload conservation against the
// goroutine engine: both engines must read every pattern entry exactly
// once and finish every node. Timing-sensitive measurements are allowed
// to differ (same-instant work interleaves differently); the work done
// is not.
func TestCompactConservation(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			compact := MustRun(cfg)
			gcfg := cfg
			gcfg.CompactNodes = false
			gor := MustRun(gcfg)

			wantReads := 0
			for _, ps := range gor.PerProc {
				wantReads += ps.Reads
			}
			gotReads := 0
			for _, ps := range compact.PerProc {
				gotReads += ps.Reads
				if ps.Finish <= 0 {
					t.Errorf("node %d never finished", ps.Node)
				}
			}
			if gotReads != wantReads {
				t.Fatalf("compact read %d blocks, goroutine engine %d", gotReads, wantReads)
			}
			if compact.TotalTime <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			accesses := func(r *Result) int64 {
				return r.Cache.ReadyHits + r.Cache.UnreadyHits + r.Cache.Misses
			}
			if got, want := accesses(compact), accesses(gor); got != want {
				t.Fatalf("compact saw %d cache accesses, goroutine engine %d", got, want)
			}
		})
	}
}

// TestCompactValidateRejects pins the capability table: the combos the
// compact engine still refuses reject with exactly these messages, and
// the axes PR 10 lifted — disk faults, node faults, failure domains —
// now validate.
func TestCompactValidateRejects(t *testing.T) {
	t.Parallel()
	reject := func(name, wantMsg string, mutate func(*Config)) {
		cfg := DefaultConfig(pattern.GW)
		cfg.CompactNodes = true
		mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted an unsupported compact configuration", name)
			return
		}
		if err.Error() != wantMsg {
			t.Errorf("%s: rejection message %q, want %q", name, err, wantMsg)
		}
	}
	reject("local pattern",
		"core: CompactNodes supports only global access patterns, not lfp",
		func(c *Config) {
			*c = DefaultConfig(pattern.LFP)
			c.CompactNodes = true
		})
	reject("trace",
		"core: CompactNodes does not support tracing",
		func(c *Config) { c.Trace = func(Event) {} })

	accept := func(name string, mutate func(*Config)) {
		cfg := DefaultConfig(pattern.GW)
		cfg.CompactNodes = true
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: supported compact configuration rejected: %v", name, err)
		}
	}
	accept("plain", func(c *Config) {})
	accept("backpressure", func(c *Config) { c.NodeFault.Backpressure = true })
	accept("disk faults", func(c *Config) { c.Fault.ReadErrorRate = 0.1 })
	accept("node faults", func(c *Config) {
		c.NodeFault.StragglerFactor = 2
		c.NodeFault.StragglerNode = 0
	})
	accept("kill + quorum", func(c *Config) {
		c.NodeFault.KillAt = 100 * sim.Millisecond
		c.NodeFault.BarrierTimeout = 50 * sim.Millisecond
	})
	accept("failure domains", func(c *Config) {
		c.Domain = fault.DomainConfig{
			Domains:    fault.SplitDomains("rack", c.Disks, c.Procs, 4),
			KillDomain: "rack1", KillAt: 100 * sim.Millisecond,
		}
	})

	// Every rejecting table entry names its feature and message; every
	// supported axis documents itself with a nil predicate.
	for _, cap := range compactCapabilities {
		if cap.feature == "" {
			t.Error("capability table entry with an empty feature name")
		}
		if (cap.blocked == nil) != (cap.reject == nil) {
			t.Errorf("capability %q: blocked and reject must be both set or both nil", cap.feature)
		}
	}
}

// TestConfigOverflowGuards pins the Validate overflow guards: node and
// per-node buffer counts whose product wraps an int must be rejected,
// not silently turned into a negative cache capacity.
func TestConfigOverflowGuards(t *testing.T) {
	t.Parallel()
	huge := int(^uint(0)>>1)/2 + 1 // > MaxInt/2, so ×2 overflows
	cfg := DefaultConfig(pattern.GW)
	cfg.Procs = huge
	cfg.Pattern.Procs = huge
	cfg.RUSetSize = 2
	if err := cfg.Validate(); err == nil {
		t.Error("Procs × RUSetSize overflow accepted")
	}
	cfg = DefaultConfig(pattern.GW)
	cfg.Procs = huge
	cfg.Pattern.Procs = huge
	cfg.Prefetch = true
	cfg.PrefetchBuffersPerProc = 2
	if err := cfg.Validate(); err == nil {
		t.Error("Procs × PrefetchBuffersPerProc overflow accepted")
	}
	cfg = DefaultConfig(pattern.GW)
	cfg.Procs = int(^uint(0)>>1)/4 + 1 // demand + prefetch pools together overflow
	cfg.Pattern.Procs = cfg.Procs
	cfg.Prefetch = true
	cfg.PrefetchBuffersPerProc = 3
	if err := cfg.Validate(); err == nil {
		t.Error("total cache capacity overflow accepted")
	}
}

// TestCompactBytesPerNode measures the compact engine's live heap per
// node after a 20k-node run — the budget that makes 100k–1M node
// sweeps feasible. The goroutine engine cannot pass this bar: its
// stacks alone are 2 KB/node.
func TestCompactBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 20k-node engine")
	}
	const nodes = 20_000
	cfg := ScaleConfig(nodes, 4, true)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("%d nodes: %.0f bytes/node live after run (total reads %d)", nodes, perNode, totalReads(res))
	if perNode > 1024 {
		t.Errorf("%.0f bytes/node exceeds the 1 KB/node budget", perNode)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(res)
}

// TestCompactBytesPerNode100k re-checks the live-heap budget at 100k
// nodes — the scale sweep's leading size — with the engine still
// reachable, under a properly provisioned disk array. CI pins this in
// its cluster-scale smoke step.
func TestCompactBytesPerNode100k(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 100k-node engine")
	}
	const nodes = 100_000
	cfg := ScaleConfig(nodes, nodes/4, true)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perNode := float64(after.HeapAlloc-before.HeapAlloc) / nodes
	t.Logf("%d nodes: %.0f bytes/node live after run (total reads %d)", nodes, perNode, totalReads(res))
	if perNode > 1024 {
		t.Errorf("%.0f bytes/node exceeds the 1 KB/node budget", perNode)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(res)
}

// TestCompactClusterRepeatSmoke drives a 10k-node compact run twice
// and compares the two Results byte for byte. CI pins it by name in
// its cluster-scale smoke step.
func TestCompactClusterRepeatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 10k-node simulations")
	}
	const nodes = 10_000
	cfg := ScaleConfig(nodes, nodes/4, true)
	r := MustRun(cfg)
	if got := int(r.Cache.Accesses()); got != cfg.Pattern.TotalBlocks {
		t.Fatalf("accesses %d, want %d", got, cfg.Pattern.TotalBlocks)
	}
	if first, again := marshalResult(t, r), resultJSON(t, cfg); again != first {
		t.Errorf("10k-node compact run differs on repeat")
	}
}

func totalReads(r *Result) int {
	n := 0
	for _, ps := range r.PerProc {
		n += ps.Reads
	}
	return n
}

// compactFaultConfigs is the fault-path matrix for the compact engine:
// every injection axis PR 10 lifted — transient disk errors, latency
// spikes with timeouts, disk death with degraded remap, stragglers and
// stalls, kill-plus-quorum, and correlated failure domains (storms,
// straggler racks, rack kill).
func compactFaultConfigs() map[string]Config {
	m := map[string]Config{}
	base := func() Config {
		cfg := DefaultConfig(pattern.GW)
		cfg.Procs = 8
		cfg.Disks = 4
		cfg.Pattern.Procs = 8
		cfg.Pattern.TotalBlocks = 96
		cfg.CompactNodes = true
		return cfg
	}

	c := base()
	c.Fault = fault.Config{Seed: 11, ReadErrorRate: 0.2}
	m["disk/transient"] = c

	c = base()
	c.Prefetch = true
	c.Fault = fault.Config{
		Seed: 11, ReadErrorRate: 0.05,
		SpikeRate: 0.1, SpikeMultiplier: 4, SpikeMean: 10 * sim.Millisecond,
		StuckRate: 0.02, StuckDelay: 20 * sim.Millisecond,
		Timeout: 120 * sim.Millisecond,
	}
	m["disk/spikes+timeout"] = c

	c = base()
	c.Fault = fault.Config{Seed: 11, KillAt: 50 * sim.Millisecond, KillDisk: 1}
	m["disk/kill-degraded"] = c

	c = base()
	c.Prefetch = true
	c.NodeFault = fault.NodeConfig{
		Seed: 5, StragglerFactor: 3, StragglerNode: 2,
		StallRate: 0.1, StallMean: 2 * sim.Millisecond,
	}
	m["node/straggler+stalls"] = c

	c = base()
	c.Sync = barrier.EveryNPerProc
	c.SyncEveryPerProc = 4
	c.NodeFault = fault.NodeConfig{
		Seed: 5, KillAt: 100 * sim.Millisecond, KillNode: 3,
		BarrierTimeout: 60 * sim.Millisecond,
	}
	m["node/kill+quorum"] = c

	c = base()
	c.Prefetch = true
	c.Domain = fault.DomainConfig{
		Seed:        9,
		Domains:     fault.SplitDomains("rack", 4, 8, 2),
		StormDomain: "rack0", StormAt: 10 * sim.Millisecond,
		StormFor: 80 * sim.Millisecond, StormFactor: 3,
		StormJitter:     5 * sim.Millisecond,
		StragglerDomain: "rack1", StragglerFactor: 2, StragglerRate: 0.5,
	}
	m["domain/storm+straggle"] = c

	c = base()
	c.Sync = barrier.EveryNTotal
	c.SyncEveryTotal = 24
	c.NodeFault.BarrierTimeout = 60 * sim.Millisecond
	c.Domain = fault.DomainConfig{
		Seed:       9,
		Domains:    fault.SplitDomains("rack", 4, 8, 4),
		KillDomain: "rack2", KillAt: 80 * sim.Millisecond,
	}
	m["domain/rack-kill"] = c
	return m
}

// TestCompactFaultDeterminism extends the compact engine's determinism
// contract to every fault path: byte-identical Results on repeat runs.
func TestCompactFaultDeterminism(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactFaultConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if first, again := resultJSON(t, cfg), resultJSON(t, cfg); again != first {
				t.Fatal("repeat run differs")
			}
		})
	}
}

// TestCompactFaultConservation: under every fault configuration the
// global reference string is still read exactly once end to end —
// retries, remaps, quorum releases, and rack kills redistribute work,
// they never lose or duplicate it.
func TestCompactFaultConservation(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactFaultConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := MustRun(cfg)
			if got := totalReads(res); got != cfg.Pattern.TotalBlocks {
				t.Fatalf("read %d of %d blocks", got, cfg.Pattern.TotalBlocks)
			}
			if res.TotalTime <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

// TestCompactKillRecoveryObservability drives the compact kill path and
// checks the recovery measures PR 10 added: the kill instant, the
// quorum detection latency, the degraded window, and the wrapped
// fault.ErrProcDead.
func TestCompactKillRecoveryObservability(t *testing.T) {
	t.Parallel()
	cfg := compactFaultConfigs()["node/kill+quorum"]
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	n := res.Faults.Node
	if n.DeadProcs != 1 || n.AliveProcs != cfg.Procs-1 {
		t.Fatalf("dead/alive = %d/%d, want 1/%d", n.DeadProcs, n.AliveProcs, cfg.Procs-1)
	}
	if n.QuorumReleases == 0 || n.Excisions == 0 {
		t.Fatalf("watchdog never acted: %d releases, %d excisions", n.QuorumReleases, n.Excisions)
	}
	if n.KilledAtMillis <= 0 {
		t.Fatalf("KilledAtMillis = %g, want > 0", n.KilledAtMillis)
	}
	if n.FirstQuorumAtMillis < n.KilledAtMillis {
		t.Fatalf("first quorum release %g ms precedes the kill at %g ms",
			n.FirstQuorumAtMillis, n.KilledAtMillis)
	}
	if want := res.TotalTimeMillis() - n.KilledAtMillis; n.DegradedMillis != want {
		t.Fatalf("DegradedMillis = %g, want %g", n.DegradedMillis, want)
	}
	if kerr := e.KillError(); kerr == nil || !errors.Is(kerr, fault.ErrProcDead) {
		t.Fatalf("kill error %v does not wrap fault.ErrProcDead", kerr)
	}
	// The victim's stats freeze at its death.
	if res.PerProc[cfg.NodeFault.KillNode].Finish <= 0 {
		t.Fatal("victim has no finish time")
	}
}

// TestCompactDomainKillDegradedWindow: a rack kill takes out a disk and
// two nodes at once; survivors finish the workload through degraded
// remap and quorum releases, and the Result carries the degraded
// window.
func TestCompactDomainKillDegradedWindow(t *testing.T) {
	t.Parallel()
	cfg := compactFaultConfigs()["domain/rack-kill"]
	res := MustRun(cfg)
	if got := totalReads(res); got != cfg.Pattern.TotalBlocks {
		t.Fatalf("read %d of %d blocks", got, cfg.Pattern.TotalBlocks)
	}
	f := res.Faults
	if f.AliveDisks != cfg.Disks-1 {
		t.Fatalf("disks alive %d, want %d", f.AliveDisks, cfg.Disks-1)
	}
	if f.Node.DeadProcs != 2 || f.Node.AliveProcs != cfg.Procs-2 {
		t.Fatalf("dead/alive = %d/%d, want 2/%d", f.Node.DeadProcs, f.Node.AliveProcs, cfg.Procs-2)
	}
	if f.DegradedReads == 0 {
		t.Fatal("no placements remapped off the dead disk")
	}
	if f.Node.DegradedMillis <= 0 {
		t.Fatalf("DegradedMillis = %g, want > 0", f.Node.DegradedMillis)
	}
}

// TestCompactChaosClusterRepeatSmoke is the CI chaos step's in-repo
// anchor: 10k compact nodes with disk faults, node stalls, and a rack
// kill, run twice and compared byte for byte.
func TestCompactChaosClusterRepeatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 10k-node chaos simulations")
	}
	const nodes = 10_000
	cfg := ScaleConfig(nodes, nodes/4, true)
	cfg.Fault = fault.Config{Seed: 11, ReadErrorRate: 0.01}
	cfg.NodeFault.Seed = 5
	cfg.NodeFault.StallRate = 0.01
	cfg.NodeFault.StallMean = sim.Millisecond
	cfg.Domain = fault.DomainConfig{
		Seed:       9,
		Domains:    fault.SplitDomains("rack", cfg.Disks, nodes, 16),
		KillDomain: "rack7", KillAt: 50 * sim.Millisecond,
	}
	r := MustRun(cfg)
	if got := totalReads(r); got != cfg.Pattern.TotalBlocks {
		t.Fatalf("read %d of %d blocks", got, cfg.Pattern.TotalBlocks)
	}
	if r.Faults.Node.DeadProcs != nodes/16 {
		t.Fatalf("DeadProcs = %d, want %d", r.Faults.Node.DeadProcs, nodes/16)
	}
	if first, again := marshalResult(t, r), resultJSON(t, cfg); again != first {
		t.Errorf("10k-node chaos run differs on repeat")
	}
}
