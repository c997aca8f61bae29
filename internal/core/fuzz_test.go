package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"testing/quick"

	"repro/internal/barrier"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/pattern"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// TestConfigSpaceFuzz drives the engine across randomized configurations
// and checks the accounting invariants that must hold for every run:
// all reads complete, access outcomes partition the reads, fetch counts
// are consistent, and the run is deterministic.
func TestConfigSpaceFuzz(t *testing.T) {
	t.Parallel()
	check := fuzzCheck(t)
	// A fixed generator keeps the explored configuration set (and thus
	// the test's runtime) reproducible; the space is still broad.
	cfgQ := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if testing.Short() {
		cfgQ.MaxCount = 10
	}
	if err := quick.Check(check, cfgQ); err != nil {
		t.Fatal(err)
	}
}

// fuzzCheck builds the invariant checker shared by the fuzz and soak
// tests.
func fuzzCheck(t *testing.T) func(seed uint64, raw [11]uint8) bool {
	return func(seed uint64, raw [11]uint8) bool {
		// Every fourth draw runs in the inline wake order (CompactNodes)
		// at a bounded cluster size — up to ~5k procs and disks — so the
		// state machines, the cache index, and the event queue under load
		// face the same invariants as the small draws, including the
		// disk-, node-, and domain-fault dims.
		compact := raw[10]%4 == 0
		kind := pattern.Kinds[int(raw[0])%len(pattern.Kinds)]
		style := barrier.Styles[int(raw[1])%len(barrier.Styles)]
		if kind == pattern.LW && style == barrier.PerPortion {
			style = barrier.None
		}
		procs := 2 + int(raw[2])%5 // 2..6
		if compact {
			procs = 100 + int(raw[2])*16 // 100..4180
		}
		cfg := DefaultConfig(kind)
		cfg.Procs = procs
		cfg.Disks = 1 + int(raw[3])%8
		cfg.Pattern.Procs = procs
		cfg.Pattern.BlocksPerProc = 10 + int(raw[4])%40
		cfg.Pattern.TotalBlocks = 40 + int(raw[4])%160
		if compact {
			cfg.CompactNodes = true
			// Disks scale with the machine; a couple of blocks per node
			// keeps each cluster draw affordable inside a fuzz round.
			cfg.Disks = 1 + int(raw[3])*16 // 1..4081
			cfg.Pattern.TotalBlocks = procs * (2 + int(raw[4])%3)
			cfg.Pattern.BlocksPerProc = 2 + int(raw[4])%3
		}
		cfg.Pattern.Seed = seed
		cfg.Seed = seed
		cfg.Sync = style
		cfg.SyncEveryPerProc = 1 + int(raw[5])%10
		cfg.SyncEveryTotal = procs * (1 + int(raw[5])%10)
		cfg.ComputeMean = sim.Duration(raw[6]%40) * sim.Millisecond
		cfg.Prefetch = raw[7]%4 != 0 // mostly on
		cfg.RUSetSize = 1 + int(raw[7])%3
		cfg.PrefetchBuffersPerProc = 1 + int(raw[8])%4
		cfg.PerNodePrefetchLimit = raw[8]%2 == 1
		cfg.Layout = interleave.Strategies[int(raw[9])%len(interleave.Strategies)]
		cfg.DiskSched = disk.SchedPolicies[int(raw[9]/4)%len(disk.SchedPolicies)]
		if raw[9]%2 == 1 {
			cfg.DiskSeekPerBlock = 50 * sim.Microsecond
			cfg.DiskMaxSeek = 10 * sim.Millisecond
		}
		if cfg.Prefetch {
			switch raw[6] % 4 {
			case 1:
				cfg.Predictor = prefetch.OBL
			case 2:
				cfg.Predictor = prefetch.SEQ
			case 3:
				cfg.Predictor = prefetch.GAPS
			}
		}
		// Every fuzzed run is swept by the invariant auditor, and some
		// draw fault dimensions that preserve the accounting
		// invariants: stragglers, stalls, capacity squeezes, transient
		// disk errors, and domain storms slow a run without changing
		// which blocks are read. Both wake orders face the same fault
		// dims. Disk/processor kills reshape per-proc accounting and are
		// corner-cased in TestFuzzSeeds and the compact fault tests
		// instead.
		cfg.AuditEvery = 5 * sim.Millisecond
		if compact {
			// A 4k-node compact run sweeps a lot of state per audit; a
			// sparser cadence keeps the draw inside a fuzz round.
			cfg.AuditEvery = 200 * sim.Millisecond
		}
		if raw[0]%3 == 0 {
			cfg.NodeFault.Seed = seed
			cfg.NodeFault.StragglerFactor = 2 + float64(raw[2]%3)
			cfg.NodeFault.StragglerNode = int(raw[3]) % procs
		}
		if raw[1]%4 == 0 {
			cfg.NodeFault.Seed = seed
			cfg.NodeFault.StallRate = 0.03
		}
		if cfg.Prefetch && raw[4]%4 == 0 {
			cfg.NodeFault.Seed = seed
			cfg.NodeFault.SqueezeAt = 40 * sim.Millisecond
			cfg.NodeFault.SqueezeFrames = 1
			cfg.NodeFault.Backpressure = raw[4]%8 == 0
		}
		if raw[6]%5 == 0 {
			// Transient read errors retry to completion: reads conserve.
			cfg.Fault.Seed = seed
			cfg.Fault.ReadErrorRate = 0.05
		}
		if raw[10]%8 >= 6 {
			// Correlated failure domains without kills: a latency storm
			// on the first rack or a straggler spread on the last, both
			// completion-safe.
			d := fault.DomainConfig{
				Seed:    seed,
				Domains: fault.SplitDomains("rack", cfg.Disks, procs, 2+int(raw[2])%3),
			}
			if raw[3]%2 == 0 {
				d.StormDomain = "rack0"
				d.StormAt = sim.Duration(raw[5]%50) * sim.Millisecond
				d.StormFor = 30 * sim.Millisecond
				d.StormFactor = 2 + float64(raw[7]%3)
				d.StormJitter = sim.Duration(raw[8]%10) * sim.Millisecond
			} else {
				d.StragglerDomain = d.Domains[len(d.Domains)-1].Name
				d.StragglerFactor = 2
				d.StragglerRate = 0.5
			}
			cfg.Domain = d
		}

		r, err := Run(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		wantReads := cfg.Pattern.TotalBlocks
		if kind.Local() {
			wantReads = procs * cfg.Pattern.BlocksPerProc
		}
		// Each transient read error sends the reader back through the
		// cache, so accesses exceed logical reads by exactly the retry
		// count (zero on fault-free draws).
		if got := int(r.Cache.Accesses()); got != wantReads+int(r.Faults.ReadRetries) {
			t.Logf("%s: accesses %d != reads %d + retries %d", cfg.Label(), got, wantReads, r.Faults.ReadRetries)
			return false
		}
		if int(r.ReadTime.N()) != wantReads {
			t.Logf("%s: read samples %d", cfg.Label(), r.ReadTime.N())
			return false
		}
		perProc := 0
		for _, ps := range r.PerProc {
			perProc += ps.Reads
		}
		if perProc != wantReads {
			t.Logf("%s: per-proc sum %d", cfg.Label(), perProc)
			return false
		}
		if r.Cache.ReadyHits+r.Cache.UnreadyHits+r.Cache.Misses != int64(wantReads)+r.Faults.ReadRetries {
			t.Logf("%s: outcome partition broken", cfg.Label())
			return false
		}
		if r.Cache.PrefetchesConsumed > r.Cache.PrefetchesIssued {
			t.Logf("%s: consumed > issued", cfg.Label())
			return false
		}
		if !cfg.Prefetch && r.Cache.PrefetchesIssued != 0 {
			t.Logf("%s: prefetches without prefetching", cfg.Label())
			return false
		}
		if r.TotalTime <= 0 || r.ReadTime.Min() < 0 {
			t.Logf("%s: degenerate timings", cfg.Label())
			return false
		}
		// Determinism: the same configuration replays identically.
		// Whole-Result JSON equality covers every counter — cache,
		// disk faults, node faults, domain events, per-proc stats —
		// not just the totals.
		r2 := MustRun(cfg)
		a, aerr := json.Marshal(r)
		b, berr := json.Marshal(r2)
		if aerr != nil || berr != nil {
			t.Logf("%s: marshal: %v %v", cfg.Label(), aerr, berr)
			return false
		}
		if !bytes.Equal(a, b) {
			t.Logf("%s: diverged on repeat", cfg.Label())
			return false
		}
		return true
	}
}

// FuzzConfigSpace is the native fuzzing entry over the same invariant
// checker the quick.Check fuzz drives: the engine's configuration
// space including the completion-safe node-fault dimensions and the
// bounded cluster-scale draws in the inline wake order (byte 10). CI smokes
// it briefly (`go test ./internal/core -run=NONE -fuzz=FuzzConfigSpace
// -fuzztime=30s`); run it longer locally to explore.
func FuzzConfigSpace(f *testing.F) {
	f.Add(uint64(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1})
	f.Add(uint64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(11), []byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245})
	// A cluster draw: byte 10 ≡ 0 (mod 4) runs the inline wake order at
	// a few thousand nodes.
	f.Add(uint64(5), []byte{2, 1, 200, 40, 1, 3, 10, 1, 2, 0, 4})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		var fixed [11]uint8
		copy(fixed[:], raw)
		if !fuzzCheck(t)(seed, fixed) {
			t.Fatalf("engine invariant violated for seed %d raw %v (see log)", seed, fixed)
		}
	})
}

// TestFuzzSeeds replays a few fixed corner configurations that once
// regressed or are structurally extreme.
func TestFuzzSeeds(t *testing.T) {
	t.Parallel()
	cases := []func(*Config){
		// One disk for everything: maximal disk contention.
		func(c *Config) { c.Disks = 1 },
		// One prefetch buffer per process under the per-node policy.
		func(c *Config) { c.PrefetchBuffersPerProc = 1; c.PerNodePrefetchLimit = true },
		// Segmented layout with seeks and SCAN scheduling.
		func(c *Config) {
			c.Layout = interleave.Segmented
			c.DiskSeekPerBlock = 100 * sim.Microsecond
			c.DiskSched = disk.SCAN
		},
		// Large RU sets shrink the effective demand pool churn.
		func(c *Config) { c.RUSetSize = 4 },
		// Sync after every single block.
		func(c *Config) { c.Sync = barrier.EveryNPerProc; c.SyncEveryPerProc = 1 },
		// The SSTF-starvation livelock found by the fuzzer: a reordering
		// disk under seeks, one contended disk, and a mispredicting
		// prefetcher that keeps feeding near-head requests. Must finish
		// (aged SSTF) rather than starve the awaited demand fetch.
		func(c *Config) {
			c.Disks = 1
			c.DiskSched = disk.SSTF
			c.DiskSeekPerBlock = 50 * sim.Microsecond
			c.DiskMaxSeek = 10 * sim.Millisecond
			c.Predictor = prefetch.GAPS
		},
		// A mid-run processor kill under quorum-released barriers: the
		// watchdog and takeover must keep the run completing for every
		// pattern kind.
		func(c *Config) {
			c.Sync = barrier.EveryNPerProc
			c.SyncEveryPerProc = 5
			c.NodeFault = fault.NodeConfig{
				Seed:           3,
				KillAt:         300 * sim.Millisecond,
				KillNode:       1,
				BarrierTimeout: 100 * sim.Millisecond,
			}
		},
	}
	for i, mutate := range cases {
		for _, kind := range []pattern.Kind{pattern.LW, pattern.GW, pattern.LRP} {
			cfg := DefaultConfig(kind)
			cfg.Procs = 4
			cfg.Disks = 4
			cfg.Pattern.Procs = 4
			cfg.Pattern.BlocksPerProc = 30
			cfg.Pattern.TotalBlocks = 120
			cfg.Prefetch = true
			mutate(&cfg)
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("case %d/%v: %v", i, kind, err)
			}
			if r.Cache.Accesses() == 0 {
				t.Fatalf("case %d/%v: no accesses", i, kind)
			}
		}
	}
}

// TestConfigSpaceSoak widens the fuzz across many generator seeds. It
// is opt-in (RAPID_SOAK=1) because it runs several hundred full
// simulations.
func TestConfigSpaceSoak(t *testing.T) {
	t.Parallel()
	if os.Getenv("RAPID_SOAK") == "" {
		t.Skip("set RAPID_SOAK=1 to run the fuzz soak")
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfgQ := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(seed))}
		if err := quick.Check(fuzzCheck(t), cfgQ); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
