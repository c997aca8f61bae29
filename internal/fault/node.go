// Node-level faults: processor slowdown, processor death, barrier
// quorum timeouts, and cache-capacity squeezes.
//
// PR 3 made the disks failable; this file makes the *processors*
// failable. The paper's barrier-coupled workloads are only as fast as
// their slowest member, and a dead member classically deadlocks every
// survivor at the next synchronization point. NodeConfig describes the
// misbehaviour — persistent stragglers, transient stalls, a kill at a
// virtual time, a capacity squeeze — and the consumers (core engine,
// barrier watchdog, cache, prefetch scheduler) turn it into bounded
// degradation instead of a hang. As with Config, the zero value injects
// nothing and every consumer takes its exact pre-fault code path when
// the configuration is inert.
package fault

import (
	"errors"

	"repro/internal/memory"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Typed node-fault errors. Consumers wrap these with %w and context
// (which node, which barrier generation); callers classify with
// errors.Is.
var (
	// ErrProcDead marks work abandoned by a killed processor. The
	// engine's takeover path wraps it with the victim's id when posting
	// the victim's unread blocks for survivors to claim.
	ErrProcDead = errors.New("processor dead")
	// ErrBarrierTimeout marks a barrier generation released by the
	// quorum watchdog rather than by full arrival. The barrier wraps it
	// with the generation and the excised member.
	ErrBarrierTimeout = errors.New("barrier quorum timeout")
)

// NodeConfig describes processor-level faults for one run. The zero
// value injects nothing and costs nothing — consumers check Enabled()
// and bypass the node injector entirely when it is inert, which keeps
// node-fault-free runs byte-identical to the existing harness.
type NodeConfig struct {
	// Seed drives every node-fault draw. Streams are split per
	// processor, so a node's stall sequence depends only on its own
	// (deterministic) action order, never on interleaving.
	Seed uint64

	// StragglerFactor, when above 1, persistently multiplies every
	// priced memory action (file system work and prefetch actions) on
	// StragglerNode by this factor — a processor that is simply slower
	// than its peers. Exactly 1 (or 0) is inert.
	StragglerFactor float64
	// StragglerNode is the slowed processor (used only when
	// StragglerFactor > 1).
	StragglerNode int

	// StallRate is the per-action probability that a processor stalls:
	// an exponentially distributed pause with mean StallMean is added
	// to the action's cost. Transient, affects every node. Must be in
	// [0, 1).
	StallRate float64
	// StallMean is the mean of the stall distribution. Zero with a
	// non-zero StallRate means 5 ms.
	StallMean sim.Duration

	// KillAt, when positive, permanently kills processor KillNode at
	// that virtual time: it abandons its remaining work at its next
	// scheduling point and never arrives at another barrier. Survivors
	// take over its unread blocks once their own work is done.
	KillAt sim.Duration
	// KillNode is the processor to kill (used only when KillAt > 0).
	KillNode int

	// BarrierTimeout, when positive, arms a virtual-time watchdog on
	// every barrier generation: if the generation is still open this
	// long after its first arrival, the members that have not arrived
	// are excised and the generation releases without them (a quorum
	// release). An excised member that later arrives rejoins. This is
	// what turns a killed or straggling processor from a deadlock into
	// bounded skew.
	BarrierTimeout sim.Duration

	// SqueezeAt, when positive, permanently retires SqueezeFrames idle
	// cache frames at that virtual time — an injectable capacity
	// squeeze modelling memory pressure from outside the file system.
	SqueezeAt sim.Duration
	// SqueezeFrames is how many frames the squeeze retires (required
	// positive when SqueezeAt is set).
	SqueezeFrames int

	// Backpressure, when true, throttles the idle-time prefetch
	// scheduler while the prefetch buffer class has no free or
	// reclaimable frame: the idle wait simply hosts no action instead
	// of overrunning into a fruitless buffer hunt. This bounds the
	// paper's overrun pathology under cache pressure.
	Backpressure bool
}

// Enabled reports whether the configuration can inject anything at
// all. Consumers bypass the node injector entirely — taking their
// exact pre-fault code paths — when this is false.
func (c NodeConfig) Enabled() bool {
	return c.StragglerFactor > 1 || c.StallRate > 0 || c.KillAt > 0 ||
		c.BarrierTimeout > 0 || c.SqueezeAt > 0 || c.Backpressure
}

// Validate checks the configuration, returning the *FieldError of each
// invalid field, joined.
func (c NodeConfig) Validate() error {
	var squeeze error
	if c.SqueezeAt > 0 && c.SqueezeFrames == 0 {
		squeeze = &FieldError{"SqueezeFrames", "is zero with SqueezeAt set"}
	}
	return errors.Join(
		checkRate("StallRate", c.StallRate, false),
		checkFactor("StragglerFactor", c.StragglerFactor, true),
		checkNonNegative("StragglerNode", c.StragglerNode, true),
		checkNonNegative("StallMean", c.StallMean, true),
		checkNonNegative("KillAt", c.KillAt, true),
		checkNonNegative("BarrierTimeout", c.BarrierTimeout, true),
		checkNonNegative("SqueezeAt", c.SqueezeAt, true),
		checkNonNegative("KillNode", c.KillNode, c.KillAt > 0),
		checkNonNegative("SqueezeFrames", c.SqueezeFrames, true),
		squeeze,
	)
}

// defaultStallMean is the stall-pause mean when the configuration does
// not say: a handful of memory actions, small enough to stay plausible
// and large enough to be visible in the idle-time accounting.
const defaultStallMean = 5 * sim.Millisecond

// nodeStreamBase is the stream id base for per-processor node-fault
// draws, disjoint from the disk, retry, and computation-delay bases.
const nodeStreamBase = 1 << 22

// NodeInjector draws node-fault outcomes from per-processor streams.
// One NodeInjector serves one simulation; the kernel serializes all
// access.
type NodeInjector struct {
	cfg     NodeConfig
	streams []rng.Source
}

// NewNodes returns a node injector for the given number of processors.
// It panics on an invalid configuration — callers validate first.
func NewNodes(cfg NodeConfig, procs int) *NodeInjector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.StallRate > 0 && cfg.StallMean == 0 {
		cfg.StallMean = defaultStallMean
	}
	ni := &NodeInjector{cfg: cfg}
	// Streams feed only the transient-stall draws; a stall-free
	// injector (straggler, kill, or just the backpressure gate) skips
	// the per-processor allocation — at cluster scale those streams
	// would cost more memory than the whole compact node state.
	if cfg.StallRate > 0 {
		ni.streams = make([]rng.Source, procs)
		for n := range ni.streams {
			ni.streams[n] = rng.Make(cfg.Seed, nodeStreamBase+uint64(n))
		}
	}
	return ni
}

// Config returns the (defaulted) configuration driving the injector.
func (ni *NodeInjector) Config() NodeConfig { return ni.cfg }

// Kills reports whether — and when, and which — a processor dies.
func (ni *NodeInjector) Kills() (node int, at sim.Duration, ok bool) {
	return ni.cfg.KillNode, ni.cfg.KillAt, ni.cfg.KillAt > 0
}

// ScaleAction prices one memory action on the given node under the
// node's slowdown: the persistent straggler factor scales the cost
// model itself (both base and contention term — see memory.Cost.Scaled),
// then — when stalls are configured — exactly one uniform draw from
// the node's own stream (plus one more for the pause length when it
// stalls) adds a transient pause, so the stream stays aligned with the
// node's own action sequence regardless of what other nodes do. drew
// and stalled report that draw and its outcome, for the caller to count.
func (ni *NodeInjector) ScaleAction(node int, c memory.Cost, others int) (d sim.Duration, drew, stalled bool) {
	if ni.cfg.StragglerFactor > 1 && node == ni.cfg.StragglerNode {
		c = c.Scaled(ni.cfg.StragglerFactor)
	}
	d = c.At(others)
	if ni.cfg.StallRate > 0 {
		s := &ni.streams[node]
		drew = true
		if stalled = s.Float64() < ni.cfg.StallRate; stalled {
			d += sim.Millis(s.Exp(ni.cfg.StallMean.Millis()))
		}
	}
	return d, drew, stalled
}
