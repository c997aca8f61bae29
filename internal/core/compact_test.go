package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/barrier"
	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/prefetch"
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

// compactConfigs is a matrix in the inline wake order (CompactNodes):
// global and local patterns, every sync style, prefetching off /
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
	c.Predictor = prefetch.SEQ
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

	c = base(pattern.LFP)
	c.Pattern.BlocksPerProc = 12
	c.Prefetch = true
	c.Sync = barrier.PerPortion
	m["lfp/perportion"] = c

	c = base(pattern.LW)
	c.Pattern.BlocksPerProc = 12
	c.Prefetch = true
	c.Sync = barrier.EveryNPerProc
	c.SyncEveryPerProc = 3
	m["lw/everyper"] = c
	return m
}

// TestCompactDeterminism is the inline wake order's core contract: the
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

// TestCompactConservation checks workload conservation across the two
// same-instant wake orders: both must read every pattern entry exactly
// once and finish every node. Timing-sensitive measurements may differ
// (same-instant work interleaves differently); the work done may not.
func TestCompactConservation(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inline := MustRun(cfg)
			bcfg := cfg
			bcfg.CompactNodes = false
			blocked := MustRun(bcfg)

			wantReads := totalReads(blocked)
			gotReads := 0
			for _, ps := range inline.PerProc {
				gotReads += ps.Reads
				if ps.Finish <= 0 {
					t.Errorf("node %d never finished", ps.Node)
				}
			}
			if gotReads != wantReads {
				t.Fatalf("inline order read %d blocks, blocked order %d", gotReads, wantReads)
			}
			if inline.TotalTime <= 0 {
				t.Fatal("no virtual time elapsed")
			}
			accesses := func(r *Result) int64 {
				return r.Cache.ReadyHits + r.Cache.UnreadyHits + r.Cache.Misses
			}
			if got, want := accesses(inline), accesses(blocked); got != want {
				t.Fatalf("inline order saw %d cache accesses, blocked order %d", got, want)
			}
		})
	}
}

// TestCompactValidateRejects checks that CompactNodes adds no
// Validate carve-out: with it set, every configuration below is
// accepted or rejected exactly as without it — local patterns and
// local kills included, which the inline order once refused.
func TestCompactValidateRejects(t *testing.T) {
	t.Parallel()
	cases := map[string]func(*Config){
		"plain":         func(c *Config) {},
		"local pattern": func(c *Config) { *c = DefaultConfig(pattern.LFP) },
		"local kill + takeover": func(c *Config) {
			*c = DefaultConfig(pattern.LRP)
			c.NodeFault.KillAt = 100 * sim.Millisecond
			c.NodeFault.BarrierTimeout = 50 * sim.Millisecond
		},
		"failure domains": func(c *Config) {
			c.Domain = fault.DomainConfig{
				Domains:    fault.SplitDomains("rack", c.Disks, c.Procs, 4),
				KillDomain: "rack1", KillAt: 100 * sim.Millisecond,
			}
		},
		"local domain kill": func(c *Config) {
			*c = DefaultConfig(pattern.LW)
			c.Domain = fault.DomainConfig{
				Domains:    fault.SplitDomains("rack", c.Disks, c.Procs, 4),
				KillDomain: "rack1", KillAt: 100 * sim.Millisecond,
			}
		},
		"no disks":     func(c *Config) { c.Disks = 0 },
		"bad lead":     func(c *Config) { c.Lead = -1 },
		"kill range":   func(c *Config) { c.NodeFault.KillAt = sim.Second; c.NodeFault.KillNode = 99 },
		"zero RU size": func(c *Config) { c.RUSetSize = 0 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig(pattern.GW)
		mutate(&cfg)
		compact := cfg
		compact.CompactNodes = true
		want, got := fmt.Sprint(cfg.Validate()), fmt.Sprint(compact.Validate())
		if got != want {
			t.Errorf("%s: CompactNodes validates as %s, without it %s", name, got, want)
		}
	}
	for _, name := range []string{"local pattern", "local kill + takeover"} {
		cfg := DefaultConfig(pattern.GW)
		cases[name](&cfg)
		cfg.CompactNodes = true
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: rejected under CompactNodes: %v", name, err)
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

// TestCompactBytesPerNode measures the live heap per node after a
// 20k-node run — the budget that makes 100k–1M node sweeps feasible.
// A goroutine per node could not pass this bar: its stack alone is at
// least 2 KB.
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

// compactFaultConfigs is the fault-path matrix in the inline wake
// order: transient disk errors, latency spikes with timeouts, disk
// death with degraded remap, stragglers and stalls, kill-plus-quorum
// (global, and local with survivor takeover), and correlated failure
// domains (storms, straggler racks, rack kill).
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
	c.Pattern.Kind = pattern.LRP
	c.Pattern.BlocksPerProc = 12
	c.Prefetch = true
	c.Sync = barrier.EveryNPerProc
	c.SyncEveryPerProc = 4
	c.NodeFault = fault.NodeConfig{
		Seed: 5, KillAt: 100 * sim.Millisecond, KillNode: 3,
		BarrierTimeout: 60 * sim.Millisecond,
	}
	m["node/local-kill+takeover"] = c

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

// TestCompactFaultDeterminism extends the inline order's determinism
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
// reference strings are still read exactly once end to end — retries,
// remaps, quorum releases, takeovers and rack kills redistribute work,
// they never lose or duplicate it.
func TestCompactFaultConservation(t *testing.T) {
	t.Parallel()
	for name, cfg := range compactFaultConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := MustRun(cfg)
			want := cfg.Pattern.TotalBlocks
			if cfg.Pattern.Kind.Local() {
				want = cfg.Procs * cfg.Pattern.BlocksPerProc
			}
			if got := totalReads(res); got != want {
				t.Fatalf("read %d of %d blocks", got, want)
			}
			if res.TotalTime <= 0 {
				t.Fatal("no virtual time elapsed")
			}
		})
	}
}

// TestCompactKillRecoveryObservability drives the kill path and checks
// the recovery measures: the kill instant, the quorum detection latency
// (the first quorum release after the kill), the degraded window, and
// the wrapped fault.ErrProcDead. The lfp run is `rapid -pattern lfp
// -sync each -proc-kill-at 2500 -barrier-timeout 100`, whose quorum
// releases start long before the kill lands.
func TestCompactKillRecoveryObservability(t *testing.T) {
	t.Parallel()
	lfp := DefaultConfig(pattern.LFP)
	lfp.Sync = barrier.EveryNPerProc
	lfp.NodeFault = fault.NodeConfig{Seed: 1, KillAt: 2500 * sim.Millisecond, BarrierTimeout: 100 * sim.Millisecond}
	for name, cfg := range map[string]Config{
		"node/kill+quorum": compactFaultConfigs()["node/kill+quorum"],
		"lfp/each":         lfp,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
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
		})
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

// KillError names the last processor a run killed and how many unread
// blocks it left; the two-victim rack kill reports its second victim.
func TestKillErrorText(t *testing.T) {
	t.Parallel()
	lfp := DefaultConfig(pattern.LFP)
	lfp.Sync = barrier.EveryNPerProc
	lfp.NodeFault = fault.NodeConfig{Seed: 1, KillAt: 2500 * sim.Millisecond, BarrierTimeout: 100 * sim.Millisecond}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"domain/rack-kill", compactFaultConfigs()["domain/rack-kill"], "core: node 5 abandoned 0 unread block(s): processor dead"},
		{"lfp/each", lfp, "core: node 0 abandoned 63 unread block(s): processor dead"},
		{"no kill", DefaultConfig(pattern.LFP), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			kerr := e.KillError()
			if tc.want == "" {
				if kerr != nil {
					t.Fatalf("kill error %v, want nil", kerr)
				}
				return
			}
			if kerr == nil || kerr.Error() != tc.want || !errors.Is(kerr, fault.ErrProcDead) {
				t.Fatalf("kill error %v, want %q wrapping fault.ErrProcDead", kerr, tc.want)
			}
		})
	}
}
