// Package memory models the NUMA memory-system costs of the Butterfly
// Plus that the paper identifies as the dominant file-system overheads.
//
// On that machine a reference to remote shared memory is several times
// the cost of a local one, and the file system's shared data structures
// (buffer map, free lists, reference-string bookkeeping) are contended:
// the more processors are simultaneously active in the I/O subsystem,
// the longer each operation takes. The paper reports prefetch actions
// costing 3–31 ms, dropping from ~22 ms when every process is I/O-bound
// to ~5 ms when computation keeps processors out of the I/O subsystem
// (§V-C, §V-D).
//
// Rather than simulate individual memory references, this package charges
// each file-system operation an analytic cost
//
//	cost = Base + PerActive × (number of *other* processors active in the I/O subsystem)
//
// which reproduces exactly the dependence the paper measured while
// remaining transparent and tunable.
package memory

import "repro/internal/sim"

// Cost is the cost model for one class of file-system operation.
type Cost struct {
	Base      sim.Duration // cost with the I/O subsystem otherwise idle
	PerActive sim.Duration // additional cost per other active participant
}

// At returns the operation cost when `others` other processors are
// active in the I/O subsystem.
func (c Cost) At(others int) sim.Duration {
	if others < 0 {
		others = 0
	}
	return c.Base + sim.Duration(others)*c.PerActive
}

// Scaled returns the cost uniformly slowed by factor f: a straggling
// node pays proportionally more for every memory reference, so both
// the base cost and the contention term grow. Factors at or below 1
// return the cost unchanged (node speedups are not modelled).
func (c Cost) Scaled(f float64) Cost {
	if f <= 1 {
		return c
	}
	return Cost{
		Base:      sim.Duration(float64(c.Base) * f),
		PerActive: sim.Duration(float64(c.PerActive) * f),
	}
}

// Model aggregates the costs of the file-system code paths exercised by
// the testbed. The zero value charges nothing (useful for ablations that
// isolate queueing effects); use Default for the calibrated testbed
// model.
type Model struct {
	// Hit is the buffer-cache lookup and copy-out on a ready hit.
	Hit Cost
	// Miss is the demand-fetch setup path: lookup, buffer allocation,
	// request enqueue (excludes the disk time itself).
	Miss Cost
	// PrefetchAction is a successful prefetch action: choosing a block,
	// allocating a buffer, enqueuing the I/O (excludes the disk time).
	PrefetchAction Cost
	// PrefetchFail is an unsuccessful prefetch attempt (e.g., no buffer
	// available): work done before discovering the action cannot finish.
	PrefetchFail Cost
	// RemoteBuffer is the extra cost of consuming a block whose buffer
	// lives on another node's memory (paper footnote 1: buffer placement
	// relative to the origin of requests matters on a NUMA machine).
	RemoteBuffer Cost
}

// Default returns the cost model calibrated against the paper's reported
// overheads: prefetch actions average ~4-5 ms with an idle I/O subsystem
// and ~23 ms with all 19 other processors active (paper: 5 ms
// compute-bound, 22 ms I/O-bound; 3–31 ms overall range).
func Default() Model {
	return Model{
		Hit:            Cost{Base: 600 * sim.Microsecond, PerActive: 40 * sim.Microsecond},
		Miss:           Cost{Base: 1 * sim.Millisecond, PerActive: 100 * sim.Microsecond},
		PrefetchAction: Cost{Base: 4 * sim.Millisecond, PerActive: 1 * sim.Millisecond},
		PrefetchFail:   Cost{Base: 2 * sim.Millisecond, PerActive: 500 * sim.Microsecond},
		// Copying a 1 KB block out of remote shared memory costs a few
		// hundred extra microseconds on the Butterfly Plus.
		RemoteBuffer: Cost{Base: 300 * sim.Microsecond, PerActive: 20 * sim.Microsecond},
	}
}

// Free returns a model in which file-system operations are effectively
// free: a flat 10 µs each, three orders of magnitude below the disk
// access time, with no contention term. Used by the "free prefetching"
// ablation to bound how much of the paper's negative results come from
// overhead alone. (Exactly zero would let a failed prefetch attempt
// retry infinitely often within one instant of virtual time.)
func Free() Model {
	c := Cost{Base: 10 * sim.Microsecond}
	return Model{Hit: c, Miss: c, PrefetchAction: c, PrefetchFail: c, RemoteBuffer: Cost{}}
}

// Uncontended returns Default with the contention term removed: every
// operation costs its calibrated base price regardless of how many
// other processors are in the I/O subsystem. This models a file system
// whose shared state is sharded per node (hash-partitioned buffer map,
// per-node free lists) instead of the Butterfly's single contention
// domain — the only regime in which a 100k+-node machine is buildable
// at all, and the model the cluster-scale sweep runs under so that disk
// queueing, not a deliberately unscalable memory term, is what it
// measures.
func Uncontended() Model {
	m := Default()
	m.Hit.PerActive = 0
	m.Miss.PerActive = 0
	m.PrefetchAction.PerActive = 0
	m.PrefetchFail.PerActive = 0
	m.RemoteBuffer.PerActive = 0
	return m
}

// Tracker counts processors currently active in the I/O subsystem. It
// is the "contention for internal data structures" signal fed to
// Cost.At.
type Tracker struct {
	active int
}

// Enter marks one processor as active in the I/O subsystem and returns
// the number of *other* processors that were already active — the
// contention the entering operation experiences.
func (t *Tracker) Enter() int {
	t.active++
	return t.active - 1
}

// Exit marks one processor as having left the I/O subsystem.
func (t *Tracker) Exit() {
	if t.active == 0 {
		panic("memory: Tracker.Exit without matching Enter")
	}
	t.active--
}

// Active returns the number of processors currently in the I/O
// subsystem.
func (t *Tracker) Active() int { return t.active }
