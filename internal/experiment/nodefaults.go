package experiment

import (
	"fmt"
	"strings"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/sim"
)

// NodeFaultSweepResult carries the node-fault extension study: the
// paper's base gw cell with one persistent straggler at a sweep of
// slowdown factors, with and without prefetching. The paper's
// barrier-coupled workloads run at the speed of their slowest member;
// the question is how much of a straggler's slowdown prefetching can
// absorb, since the healthy members' extra barrier wait is exactly the
// idle time prefetching exploits.
type NodeFaultSweepResult struct {
	// Factors are the straggler slowdown multipliers (1 = no straggler).
	Factors []float64
	// TotalTime has series "prefetch" and "no prefetch": total
	// execution time vs straggler factor.
	TotalTime *metrics.Figure
	// Improvement is prefetching's percentage exec-time reduction vs
	// straggler factor (the masking signal).
	Improvement *metrics.Figure
	// Base and Pref are the raw per-factor results (no-prefetch and
	// prefetch), in Factors order.
	Base, Pref []*core.Result
}

// nodeCell is the sweep's per-factor configuration: the base gw cell
// with the last processor persistently slowed. Factor 1 leaves the
// node-fault config zero-valued — the inert clean baseline.
func nodeCell(opts Options, factor float64, prefetch bool) core.Config {
	cfg := opts.Config(pattern.GW, barrier.EveryNPerProc, false, prefetch)
	if factor > 1 {
		cfg.NodeFault = fault.NodeConfig{
			Seed:            opts.Seed,
			StragglerFactor: factor,
			StragglerNode:   opts.Procs - 1,
		}
	}
	return cfg
}

// chaosCell composes every node-fault mechanism except the kill (which
// N3 studies on its own): a persistent straggler, transient stalls on
// every node, quorum-released barriers, a mid-run capacity squeeze,
// and prefetch backpressure. It is the determinism claim's worst case.
func chaosCell(opts Options, prefetch bool) core.Config {
	cfg := opts.Config(pattern.GW, barrier.EveryNPerProc, false, prefetch)
	cfg.NodeFault = fault.NodeConfig{
		Seed:            opts.Seed,
		StragglerFactor: 8,
		StragglerNode:   opts.Procs - 1,
		StallRate:       0.02,
		BarrierTimeout:  250 * sim.Millisecond,
		SqueezeAt:       100 * sim.Millisecond,
		SqueezeFrames:   opts.Procs,
		Backpressure:    true,
	}
	return cfg
}

// DefaultStragglerFactors is the sweep used by VerifyNodeFaultClaims
// and the figures command: clean baseline through an 8× straggler.
func DefaultStragglerFactors() []float64 { return []float64{1, 2, 4, 8} }

// RunNodeFaultSweep measures the base gw cell at each straggler
// factor, with and without prefetching. Factor 1 takes the exact
// pre-fault code path, so the sweep's origin doubles as the clean
// baseline.
func RunNodeFaultSweep(opts Options, factors []float64) *NodeFaultSweepResult {
	r := &NodeFaultSweepResult{
		Factors: factors,
		TotalTime: &metrics.Figure{
			Title:  "Extension — Total execution time vs straggler slowdown (gw)",
			XLabel: "straggler slowdown factor",
			YLabel: "total execution time (ms)",
		},
		Improvement: &metrics.Figure{
			Title:  "Extension — Prefetching benefit vs straggler slowdown",
			XLabel: "straggler slowdown factor",
			YLabel: "% reduction in total execution time",
		},
	}
	pf := r.TotalTime.AddSeries("prefetch", 'P')
	np := r.TotalTime.AddSeries("no prefetch", 'N')
	imp := r.Improvement.AddSeries("gw", 'o')
	var cfgs []core.Config
	for _, f := range factors {
		cfgs = append(cfgs, nodeCell(opts, f, false), nodeCell(opts, f, true))
	}
	results := runAll(opts, cfgs)
	for i, f := range factors {
		base, run := results[2*i], results[2*i+1]
		r.Base = append(r.Base, base)
		r.Pref = append(r.Pref, run)
		np.Add(f, base.TotalTimeMillis())
		pf.Add(f, run.TotalTimeMillis())
		imp.Add(f, metrics.PercentReduction(base.TotalTimeMillis(), run.TotalTimeMillis()))
	}
	return r
}

// deadlocks runs the configuration expecting it may hang: it returns
// true (with the diagnostic) when the engine's deadlock detector
// fires, false when the run completes, and re-panics on anything else.
// A deadlocked run leaves nothing behind: its processors are cnodes in
// kernel context, with no goroutine to leak.
func deadlocks(cfg core.Config) (deadlocked bool, msg string) {
	defer func() {
		if r := recover(); r != nil {
			m := fmt.Sprint(r)
			if !strings.Contains(m, "deadlock") {
				panic(r)
			}
			deadlocked, msg = true, m
		}
	}()
	core.MustRun(cfg)
	return false, ""
}

// VerifyNodeFaultClaims machine-checks the node-fault extension's
// claims, the way VerifyFaultClaims checks the disk-fault ones:
// determinism under the full chaos composition, zero-config identity,
// quorum release turning a processor death from a deadlock into a
// completed run, straggler cost monotonicity, and prefetch masking.
func VerifyNodeFaultClaims(opts Options) *Verification {
	v := &Verification{}
	stat := statFn(opts.Obs)
	curStats := ""
	add := func(id, paper, measured string, pass bool) {
		v.Claims = append(v.Claims, Claim{ID: id, Paper: paper, Measured: measured, Pass: pass, Stats: curStats})
	}

	factors := DefaultStragglerFactors()
	sweep := RunNodeFaultSweep(opts, factors)
	curStats = stat()

	// N1 — reproducibility: the full chaos composition (straggler +
	// stalls + quorum timeouts + capacity squeeze + backpressure) is a
	// pure function of its configuration; a pooled run and a serial
	// rerun must agree exactly, fault counters included.
	chaos := runAll(opts, []core.Config{chaosCell(opts, true)})[0]
	rerun := core.MustRun(chaosCell(opts, true))
	curStats = stat()
	add("N1", "node-fault injection is deterministic in virtual time",
		fmt.Sprintf("rerun total %v vs %v, node counters %+v vs %+v",
			rerun.TotalTime, chaos.TotalTime, rerun.Faults.Node, chaos.Faults.Node),
		rerun.TotalTime == chaos.TotalTime && rerun.Faults == chaos.Faults)

	// N2 — zero-config identity: a zero-value node-fault config is
	// inert, so the sweep's origin equals the plain pre-fault run.
	clean := core.MustRun(opts.Config(pattern.GW, barrier.EveryNPerProc, false, false))
	curStats = stat()
	add("N2", "a zero-value node-fault config leaves the run byte-identical",
		fmt.Sprintf("total %v with zero node-fault config vs %v without",
			sweep.Base[0].TotalTime, clean.TotalTime),
		sweep.Base[0].TotalTime == clean.TotalTime && sweep.Base[0].Faults == clean.Faults)

	// N3 — quorum release beats deadlock: killing a processor mid-run
	// under a barrier-coupled local pattern deadlocks the survivors at
	// the next barrier; with a barrier timeout the same configuration
	// completes the entire reference string, the watchdog's quorum
	// releases excising the corpse and the survivors taking over its
	// unread blocks. The probe uses the demand-fetching cell: with
	// prefetching on, a never-releasing barrier is an unbounded buffer
	// hunt (virtual livelock) rather than a detectable deadlock — see
	// core's backpressure test for how the gate bounds that case.
	cleanL := core.MustRun(opts.Config(pattern.LFP, barrier.EveryNPerProc, false, false))
	kill := opts.Config(pattern.LFP, barrier.EveryNPerProc, false, false)
	kill.NodeFault = fault.NodeConfig{
		Seed:   opts.Seed,
		KillAt: cleanL.TotalTime / 3,
	}
	hung, _ := deadlocks(kill)
	kill.NodeFault.BarrierTimeout = 100 * sim.Millisecond
	kres := core.MustRun(kill)
	curStats = stat()
	reads := 0
	for _, ps := range kres.PerProc {
		reads += ps.Reads
	}
	wantReads := opts.Procs * opts.BlocksPerProc
	n := kres.Faults.Node
	add("N3", "barrier quorum release turns a processor death from deadlock into completion",
		fmt.Sprintf("no timeout: deadlock=%v; with timeout: %d/%d reads, %d quorum releases, %d takeover reads, %d/%d procs alive",
			hung, reads, wantReads, n.QuorumReleases, n.TakeoverReads, n.AliveProcs, opts.Procs),
		hung && reads == wantReads && n.QuorumReleases > 0 && n.TakeoverReads > 0 &&
			n.DeadProcs == 1 && n.AliveProcs == opts.Procs-1)

	// N4 — stragglers cost time: the demand-fetching baseline slows
	// down monotonically as the straggler factor grows (the barrier
	// couples every member to the slowest).
	mono := true
	for i := 1; i < len(factors); i++ {
		if sweep.Base[i].TotalTime <= sweep.Base[i-1].TotalTime {
			mono = false
		}
	}
	add("N4", "a persistent straggler slows the whole computation at every factor step",
		fmt.Sprintf("no-prefetch totals %v", totalsOf(sweep.Base)), mono)

	// N5 — masking: prefetching still wins at every straggler factor;
	// the healthy members' longer barrier waits are idle time the
	// prefetcher converts into useful reads.
	masked := true
	worst := 100.0
	for i := range factors {
		red := metrics.PercentReduction(sweep.Base[i].TotalTimeMillis(), sweep.Pref[i].TotalTimeMillis())
		if red < worst {
			worst = red
		}
		if red <= 0 {
			masked = false
		}
	}
	add("N5", "prefetching's exec-time reduction survives every straggler factor",
		fmt.Sprintf("worst reduction %+.1f%% across factors %v", worst, factors), masked)

	return v
}
