package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// FaultCounters aggregates the fault-injection view of one run. All
// zero when fault injection is disabled. The struct (including Node)
// stays comparable with ==, which the determinism claims rely on.
type FaultCounters struct {
	// ReadRetries counts demand reads retried after a failed fill.
	ReadRetries int64
	// DegradedReads counts block placements remapped off a dead disk.
	DegradedReads int64
	// Disk aggregates the injected-fault counters across all disks.
	Disk disk.FaultStats
	// AliveDisks is the number of disks still serving requests at
	// completion (always Config.Disks on fault-free runs).
	AliveDisks int
	// Node aggregates the processor-level fault counters.
	Node NodeFaultCounters
}

// NodeFaultCounters is the node-level (processor) fault view of one
// run: what the node-fault layer injected and how the system absorbed
// it. All zero (except AliveProcs) when node faults are disabled.
type NodeFaultCounters struct {
	// Stalls counts transient processor stalls injected.
	Stalls int64
	// DeadProcs counts processors killed mid-run.
	DeadProcs int
	// AliveProcs is Config.Procs minus DeadProcs, set on every run.
	AliveProcs int
	// TakeoverReads counts blocks a survivor read on behalf of a killed
	// processor (local patterns; global patterns redistribute through
	// self-scheduling and count nothing here).
	TakeoverReads int
	// QuorumReleases counts barrier generations the watchdog released
	// without their full membership.
	QuorumReleases int
	// Excisions counts members the watchdog removed from the barrier
	// (a member excised, rejoined, and excised again counts twice).
	Excisions int
	// FramesRetired counts cache frames permanently removed by the
	// capacity squeeze.
	FramesRetired int
	// ThrottledPrefetches counts prefetch attempts the backpressure
	// gate suppressed while the prefetch buffer class was exhausted.
	ThrottledPrefetches int64

	// Recovery observability (all zero when no processor dies).
	// KilledAtMillis is the virtual time the first kill landed (the
	// victim reached its next read boundary and crashed out);
	// FirstQuorumAtMillis is the first quorum release after it (the
	// first of the run if no kill landed) — the survivors' detection
	// instant; DegradedMillis is the degraded window, kill
	// landing to last survivor finish (MTTR in a run that ends rather
	// than repairs).
	KilledAtMillis      float64
	FirstQuorumAtMillis float64
	DegradedMillis      float64
}

// ProcStats is the per-processor view of a run, used to study how evenly
// prefetching's benefits are distributed (the paper's explanation for
// the lfp slowdowns). It is all a cluster Result keeps per node, so the
// counts a node's reads bound are int32, which makes the record 112
// bytes.
type ProcStats struct {
	Node             int32
	Reads            int
	ReadTime         metrics.Summary // ms
	SyncWait         metrics.Summary // ms, logical (arrival → release)
	Finish           sim.Time
	PrefetchesIssued int32
	PrefetchAttempts int32 // including failures
}

// Result carries every measure the paper records for one run (§IV-C).
type Result struct {
	Config Config

	// TotalTime is the overall completion time of the computation: the
	// instant the last process finishes.
	TotalTime sim.Duration

	// ReadTime is the per-request time to read a block, ms.
	ReadTime metrics.Summary
	// ReadTimeHist is the distribution of block read times: 2 ms buckets
	// from 0 to 120 ms (reads beyond that land in the overflow bucket).
	ReadTimeHist *metrics.Histogram
	// HitWaitAll is the hit-wait time over all hits (ready hits
	// contribute zero), ms.
	HitWaitAll metrics.Summary
	// HitWaitUnready is the hit-wait time over unready hits only, ms.
	HitWaitUnready metrics.Summary
	// SyncTime is the logical synchronization wait (arrival of a process
	// to the moment all processes achieve synchrony), ms.
	SyncTime metrics.Summary
	// ResumeDelay is the extra delay from release (or I/O completion) to
	// actual resumption caused by prefetch overrun, ms, one sample per
	// idle period that overran.
	Overrun metrics.Summary
	// PrefetchActionTime is the duration of individual prefetch actions
	// (successful or not), ms.
	PrefetchActionTime metrics.Summary
	// DiskResponse is the effective disk access time (enqueue →
	// completion), ms.
	DiskResponse metrics.Summary
	// DiskQueueDelay is the queueing component of DiskResponse, ms.
	DiskQueueDelay metrics.Summary
	// DiskUtilization is the mean fraction of the run each disk was busy.
	DiskUtilization float64
	// IdleTime accumulates logical idle time by idle kind, ms per idle
	// period.
	IdleTime [3]metrics.Summary

	// Cache is the cache activity snapshot.
	Cache cache.Stats

	// Faults is the fault-injection activity snapshot.
	Faults FaultCounters

	// PerProc is indexed by node.
	PerProc []ProcStats
}

// HitRatio is the fraction of accesses satisfied by (ready or unready)
// buffer hits.
func (r *Result) HitRatio() float64 { return r.Cache.HitRatio() }

// MissRatio is 1 - HitRatio.
func (r *Result) MissRatio() float64 { return r.Cache.MissRatio() }

// ReadyHitFraction is the fraction of all accesses served by ready hits.
func (r *Result) ReadyHitFraction() float64 {
	a := r.Cache.Accesses()
	if a == 0 {
		return 0
	}
	return float64(r.Cache.ReadyHits) / float64(a)
}

// UnreadyHitFraction is the fraction of all accesses served by unready
// hits.
func (r *Result) UnreadyHitFraction() float64 {
	a := r.Cache.Accesses()
	if a == 0 {
		return 0
	}
	return float64(r.Cache.UnreadyHits) / float64(a)
}

// TotalTimeMillis returns the completion time in milliseconds.
func (r *Result) TotalTimeMillis() float64 { return r.TotalTime.Millis() }

// NormalizedTotalMillis divides the completion time by `by`, used by the
// prefetch-lead experiments where local patterns read 20× the blocks of
// their global counterparts (§V-E).
func (r *Result) NormalizedTotalMillis(by int) float64 {
	if by <= 0 {
		panic("core: non-positive normalization divisor")
	}
	return r.TotalTime.Millis() / float64(by)
}

// String renders a compact multi-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Config.Label())
	fmt.Fprintf(&b, "  total time      %10.1f ms\n", r.TotalTimeMillis())
	fmt.Fprintf(&b, "  block read time %10.2f ms (max %.2f)\n", r.ReadTime.Mean(), r.ReadTime.Max())
	fmt.Fprintf(&b, "  hit ratio       %10.3f (ready %.3f, unready %.3f)\n",
		r.HitRatio(), r.ReadyHitFraction(), r.UnreadyHitFraction())
	fmt.Fprintf(&b, "  hit-wait        %10.2f ms (unready-only %.2f)\n",
		r.HitWaitAll.Mean(), r.HitWaitUnready.Mean())
	fmt.Fprintf(&b, "  disk response   %10.2f ms (util %.2f)\n", r.DiskResponse.Mean(), r.DiskUtilization)
	if r.SyncTime.N() > 0 {
		fmt.Fprintf(&b, "  sync time       %10.2f ms\n", r.SyncTime.Mean())
	}
	if r.Config.Prefetch {
		fmt.Fprintf(&b, "  prefetches      %10d issued, %d consumed, %d fetched on demand\n",
			r.Cache.PrefetchesIssued, r.Cache.PrefetchesConsumed, r.Cache.Misses)
		fmt.Fprintf(&b, "  prefetch action %10.2f ms, overrun %.2f ms\n",
			r.PrefetchActionTime.Mean(), r.Overrun.Mean())
	} else {
		fmt.Fprintf(&b, "  demand fetches  %10d\n", r.Cache.Misses)
	}
	if r.Config.Fault.Enabled() {
		f := r.Faults
		fmt.Fprintf(&b, "  faults          %10d transient, %d spikes, %d stuck, %d timeouts, %d dead-failed\n",
			f.Disk.Transient, f.Disk.Spikes, f.Disk.Stuck, f.Disk.Timeouts, f.Disk.DeadFailed)
		fmt.Fprintf(&b, "  recovery        %10d retries, %d degraded placements, %d failed fills, disks alive %d/%d\n",
			f.ReadRetries, f.DegradedReads, r.Cache.FailedFills, f.AliveDisks, r.Config.Disks)
	}
	if r.Config.NodeFault.Enabled() {
		n := r.Faults.Node
		fmt.Fprintf(&b, "  node faults     %10d stalls, %d dead, %d takeover reads, procs alive %d/%d\n",
			n.Stalls, n.DeadProcs, n.TakeoverReads, n.AliveProcs, r.Config.Procs)
		fmt.Fprintf(&b, "  quorum          %10d releases, %d excisions, %d frames retired, %d throttled prefetches\n",
			n.QuorumReleases, n.Excisions, n.FramesRetired, n.ThrottledPrefetches)
	}
	if r.Config.Domain.Enabled() {
		f := r.Faults
		fmt.Fprintf(&b, "  domains         %10d stormed requests, %d dead-failed, disks alive %d/%d, procs alive %d/%d\n",
			f.Disk.Stormed, f.Disk.DeadFailed, f.AliveDisks, r.Config.Disks,
			f.Node.AliveProcs, r.Config.Procs)
	}
	if n := r.Faults.Node; n.DeadProcs > 0 {
		fmt.Fprintf(&b, "  degraded window %10.1f ms (kill landed %.1f ms, survivors done %.1f ms)\n",
			n.DegradedMillis, n.KilledAtMillis, r.TotalTimeMillis())
		if n.FirstQuorumAtMillis > 0 {
			fmt.Fprintf(&b, "  detection       %10.1f ms kill-to-quorum-release\n",
				n.FirstQuorumAtMillis-n.KilledAtMillis)
		}
	}
	fmt.Fprintf(&b, "  idle periods    %10s\n", r.idleLine())
	return b.String()
}

// idleLine summarizes the three exploited idle-time classes (§III).
func (r *Result) idleLine() string {
	names := [3]string{"sync", "own-io", "remote-io"}
	parts := make([]string, 0, 3)
	for i, s := range r.IdleTime {
		if s.N() > 0 {
			parts = append(parts, fmt.Sprintf("%s %d×%.1fms", names[i], s.N(), s.Mean()))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ", ")
}
