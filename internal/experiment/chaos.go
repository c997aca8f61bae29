// Chaos at cluster scale: the fault machinery of PRs 3/5 (F1-F5,
// N1-N5) proved prefetching masks faults at the paper's 20 processors;
// this study re-asks the question at 100k-1M compact-engine nodes,
// where failures stop being rare and start being correlated. The
// chaos composition layers transient disk errors, node stalls, and a
// correlated rack kill (fault.DomainConfig) on the scale sweep's
// cells, and VerifyChaosClaims machine-checks claims C1-C5 on top.
package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// chaosFaults layers the kill-free chaos composition onto a scale
// cell: a low-rate transient disk error floor, transient node stalls,
// and a failure-domain latency storm plus a straggler rack. Every
// stream is seeded off the sweep seed, so chaos is replayable.
func (o ScaleOptions) chaosFaults(cfg *core.Config) {
	racks := racksFor(cfg.Disks)
	cfg.Fault = fault.Config{Seed: o.Seed + 11, ReadErrorRate: 0.01}
	cfg.NodeFault.Seed = o.Seed + 5
	cfg.NodeFault.StallRate = 0.01
	cfg.NodeFault.StallMean = sim.Millisecond
	cfg.Domain = fault.DomainConfig{
		Seed:    o.Seed + 9,
		Domains: fault.SplitDomains("rack", cfg.Disks, cfg.Procs, racks),
		// The first rack weathers a 3× service-time storm through the
		// run's first quarter-second; the last rack straggles at 2×.
		StormDomain: "rack0", StormAt: 50 * sim.Millisecond,
		StormFor: 200 * sim.Millisecond, StormFactor: 3,
		StormJitter:     10 * sim.Millisecond,
		StragglerDomain: fmt.Sprintf("rack%d", racks-1),
		StragglerFactor: 2, StragglerRate: 0.25,
	}
}

// chaosKill adds the correlated kill: the middle rack — its disks and
// its nodes together — dies at killAt. Requires cfg.Domain.Domains to
// be populated (chaosFaults or chaosDomainKill).
func (o ScaleOptions) chaosKill(cfg *core.Config, killAt sim.Duration) {
	racks := racksFor(cfg.Disks)
	cfg.Domain.KillDomain = fmt.Sprintf("rack%d", racks/2)
	cfg.Domain.KillAt = killAt
}

// chaosDomainKill builds a kill-only domain configuration: the machine
// split into racks with the middle rack dying at killAt and nothing
// else injected — the isolation C5 needs to price the kill itself.
func (o ScaleOptions) chaosDomainKill(cfg *core.Config, racks int, killAt sim.Duration) {
	cfg.Domain = fault.DomainConfig{
		Seed:       o.Seed + 9,
		Domains:    fault.SplitDomains("rack", cfg.Disks, cfg.Procs, racks),
		KillDomain: fmt.Sprintf("rack%d", racks/2),
		KillAt:     killAt,
	}
}

// VerifyChaosClaims machine-checks the cluster-chaos claims C1-C5 on
// the scale sweep's leading size and returns a chaos-augmented sweep:
//
//	C1  chaos determinism — the full chaos composition (disk faults,
//	    stalls, storm, straggler rack, rack kill) at Nodes[0] is
//	    byte-identical across repetition
//	C2  zero-value inertness — a config with fault seeds set, racks
//	    named, but no event enabled is byte-identical to the clean
//	    scale cell (the PR 7/8 golden path does not move)
//	C3  quorum release beats deadlock — a rack kill under barrier
//	    coupling deadlocks without a quorum timeout and completes the
//	    whole reference string with one
//	C4  prefetch masks chaos — the kill-free chaos composition still
//	    runs faster with prefetching than without
//	C5  proportional degradation — a rack kill slows the run, a bigger
//	    rack slows it more, and survivors complete every read either way
func VerifyChaosClaims(opts ScaleOptions) (*Verification, *ScaleResult) {
	opts = opts.withDefaults()
	opts.Chaos = true
	v := &Verification{}
	add := func(id, claim, measured string, pass bool) {
		v.Claims = append(v.Claims, Claim{ID: id, Paper: claim, Measured: measured, Pass: pass})
	}

	n0 := opts.Nodes[0]
	d0 := disksFor(n0)
	blocks := n0 * opts.BlocksPerNode
	compute := computeMean(core.DefaultConfig(pattern.GW).DiskAccess)
	baseCfg := func(prefetch bool) core.Config {
		return scaleCellConfig(n0, d0, prefetch, blocks, compute, opts.Seed)
	}
	reads := func(r *core.Result) int {
		n := 0
		for _, ps := range r.PerProc {
			n += ps.Reads
		}
		return n
	}
	// stripConfig marshals a Result with its Config removed: C2
	// compares runs whose configs differ only by inert fields, and the
	// Config echo would differ trivially.
	stripConfig := func(r *core.Result) []byte {
		cp := *r
		cp.Config = core.Config{}
		b, err := json.Marshal(&cp)
		if err != nil {
			panic(err)
		}
		return b
	}

	clean := core.MustRun(baseCfg(true))
	killAt := clean.TotalTime / 4

	// C1: chaos determinism. The domain draws happen at injector
	// construction and the per-disk/per-node streams split off
	// dedicated bases, so the full composition must stay a pure
	// function of its configuration.
	chaosCfg := baseCfg(true)
	opts.chaosFaults(&chaosCfg)
	opts.chaosKill(&chaosCfg, killAt)
	marshal := func(cfg core.Config) []byte {
		b, err := json.Marshal(core.MustRun(cfg))
		if err != nil {
			panic(err)
		}
		return b
	}
	a, b := marshal(chaosCfg), marshal(chaosCfg)
	add("C1-chaos-determinism",
		fmt.Sprintf("the full chaos composition at %d nodes is deterministic (repeat)", n0),
		fmt.Sprintf("result JSON %d bytes; repeat equal: %v", len(a), bytes.Equal(a, b)),
		bytes.Equal(a, b))

	// C2: zero-value inertness. Arming the fault seed and naming the
	// racks without enabling any event must leave the run on the exact
	// pre-fault code path — the golden scale cell does not move a byte.
	inertCfg := baseCfg(true)
	inertCfg.Fault = fault.Config{Seed: opts.Seed + 11}
	inertCfg.Domain = fault.DomainConfig{
		Seed:    opts.Seed + 9,
		Domains: fault.SplitDomains("rack", d0, n0, racksFor(d0)),
	}
	inert := core.MustRun(inertCfg)
	cleanBytes, inertBytes := stripConfig(clean), stripConfig(inert)
	add("C2-zero-value-inert",
		"fault seeds and named domains with no event enabled are byte-identical to the clean scale cell",
		fmt.Sprintf("result JSON %d bytes (config stripped); equal: %v",
			len(cleanBytes), bytes.Equal(cleanBytes, inertBytes)),
		bytes.Equal(cleanBytes, inertBytes))

	// C3: quorum release beats deadlock at scale. Under barrier
	// coupling a rack kill classically deadlocks every survivor at the
	// next generation (the backpressure gate keeps the prefetching
	// engine's version detectable); a quorum timeout turns the same
	// configuration into a completed run.
	syncCfg := baseCfg(true)
	syncCfg.Sync = barrier.EveryNTotal
	syncCfg.SyncEveryTotal = blocks / 4
	opts.chaosDomainKill(&syncCfg, racksFor(d0), killAt)
	hung, _ := deadlocks(syncCfg)
	syncCfg.NodeFault.BarrierTimeout = 100 * sim.Millisecond
	qres := core.MustRun(syncCfg)
	qn := qres.Faults.Node
	add("C3-quorum-beats-deadlock",
		fmt.Sprintf("a rack kill under barrier coupling deadlocks %d nodes without a quorum timeout and completes with one", n0),
		fmt.Sprintf("no timeout: deadlock=%v; with timeout: %d/%d reads, %d quorum releases, %d excisions, %d/%d procs alive",
			hung, reads(qres), blocks, qn.QuorumReleases, qn.Excisions, qn.AliveProcs, n0),
		hung && reads(qres) == blocks && qn.QuorumReleases > 0 && qn.DeadProcs > 0)

	// C4: prefetch masks chaos. Stalls, storms, and retry backoffs are
	// latency — exactly what the paper says idle-time prefetching
	// hides. The kill-free composition must still run faster with
	// prefetching than without.
	offCfg, onCfg := baseCfg(false), baseCfg(true)
	opts.chaosFaults(&offCfg)
	opts.chaosFaults(&onCfg)
	roff, ron := core.MustRun(offCfg), core.MustRun(onCfg)
	red := metrics.PercentReduction(roff.TotalTimeMillis(), ron.TotalTimeMillis())
	add("C4-prefetch-masks-chaos",
		"prefetching reduces total time under the kill-free chaos composition at scale",
		fmt.Sprintf("no-prefetch %.0f ms vs prefetch %.0f ms (%+.1f%%); %d faults injected",
			roff.TotalTimeMillis(), ron.TotalTimeMillis(), red,
			ron.Faults.Disk.Transient+ron.Faults.Disk.Spikes),
		red > 0)

	// C5: proportional degradation. Killing 1 rack of 16 costs time;
	// killing 1 rack of 4 — four times the disks and nodes — costs
	// more; survivors complete the whole reference string either way
	// through degraded remap and self-scheduling.
	smallCfg := baseCfg(true)
	opts.chaosDomainKill(&smallCfg, 16, killAt)
	largeCfg := baseCfg(true)
	opts.chaosDomainKill(&largeCfg, 4, killAt)
	rs, rl := core.MustRun(smallCfg), core.MustRun(largeCfg)
	ordered := clean.TotalTime < rs.TotalTime && rs.TotalTime < rl.TotalTime
	complete := reads(rs) == blocks && reads(rl) == blocks
	add("C5-proportional-degradation",
		"a rack kill degrades completion time with domain size while survivors finish every read",
		fmt.Sprintf("clean %.0f ms < kill-1/16 %.0f ms (%d dead) < kill-1/4 %.0f ms (%d dead); survivors complete: %v",
			clean.TotalTimeMillis(), rs.TotalTimeMillis(), rs.Faults.Node.DeadProcs,
			rl.TotalTimeMillis(), rl.Faults.Node.DeadProcs, complete),
		ordered && complete &&
			rs.Faults.Node.DeadProcs > 0 && rl.Faults.Node.DeadProcs > rs.Faults.Node.DeadProcs)

	sweep := RunScaleSweep(opts)
	return v, sweep
}
