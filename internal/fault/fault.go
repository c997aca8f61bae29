// Package fault implements deterministic fault injection for the
// simulated I/O subsystem.
//
// The paper's testbed assumed perfectly reliable 30 ms disks; real disk
// service times are heavy-tailed and real disks fail. This package
// layers a seedable fault model under the discrete-event simulation:
// transient read errors, latency spikes, stuck requests (released only
// by a timeout), and permanent disk death at a configured virtual
// time. Every decision is drawn from a per-disk PCG stream split from
// one seed, and requests reach each disk in kernel order, so a faulted
// run is exactly reproducible — for any worker count — from its
// configuration alone. No wall-clock time or shared mutable state is
// involved anywhere.
//
// The package is deliberately free of disk/cache/fs imports: the disk
// layer consults an Injector per dispatched request and maps the
// resulting Outcome onto its own typed errors, so the fault model can
// be reused by any component that wants deterministic misbehaviour.
package fault

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config describes the fault model for one run. The zero value injects
// nothing and costs nothing: every consumer checks Enabled() and takes
// its pre-fault code path when the configuration is inert, which is
// what keeps fault-free runs byte-identical to the pre-fault harness.
type Config struct {
	// Seed drives every fault draw. Streams are split per disk, so
	// results do not depend on the interleaving of other disks'
	// requests, only on each disk's own (deterministic) request order.
	Seed uint64

	// ReadErrorRate is the per-request probability of a transient read
	// error: the transfer occupies the disk for its full service time
	// and then completes with a typed error. Must be in [0, 1).
	ReadErrorRate float64

	// SpikeRate is the per-request probability of a latency spike.
	// Must be in [0, 1).
	SpikeRate float64
	// SpikeMultiplier scales the base service time of a spiked request
	// (e.g. 4 = four times slower). Values <= 1 leave the base alone.
	SpikeMultiplier float64
	// SpikeMean, when positive, additionally adds an exponentially
	// distributed tail with this mean to spiked requests — the
	// heavy-tailed outliers of real disk traces.
	SpikeMean sim.Duration

	// StuckRate is the per-request probability that a request wedges:
	// it holds the disk for StuckDelay (default 60 s) unless a Timeout
	// releases it early with an error. Must be in [0, 1).
	StuckRate float64
	// StuckDelay is how long a stuck request occupies the disk when no
	// timeout intervenes. Zero with a non-zero StuckRate means 60 s.
	StuckDelay sim.Duration

	// Timeout, when positive, bounds the service time of every
	// request: a request whose (possibly faulted) service would exceed
	// it completes at the timeout instant with a typed timeout error,
	// freeing the disk. Queueing delay does not count — the watchdog
	// arms when service begins.
	Timeout sim.Duration

	// KillAt, when positive, permanently kills disk KillDisk at that
	// virtual time: pending requests fail immediately, the request in
	// service fails at its completion instant, and every later submit
	// fails on arrival. Degraded-mode callers remap the dead disk's
	// blocks onto the survivors.
	KillAt sim.Duration
	// KillDisk is the disk to kill (used only when KillAt > 0).
	KillDisk int
}

// Enabled reports whether the configuration can inject anything at
// all. Consumers bypass the injector entirely — taking their exact
// pre-fault code paths — when this is false.
func (c Config) Enabled() bool {
	return c.ReadErrorRate > 0 || c.SpikeRate > 0 || c.StuckRate > 0 ||
		c.Timeout > 0 || c.KillAt > 0
}

// Validate checks the configuration. Rates must be in [0, 1): a rate
// of one would make every retry fail and the run could never complete.
func (c Config) Validate() error {
	check := func(name string, rate float64) error {
		if rate < 0 || rate >= 1 {
			return fmt.Errorf("fault: %s %g outside [0, 1)", name, rate)
		}
		return nil
	}
	if err := check("ReadErrorRate", c.ReadErrorRate); err != nil {
		return err
	}
	if err := check("SpikeRate", c.SpikeRate); err != nil {
		return err
	}
	if err := check("StuckRate", c.StuckRate); err != nil {
		return err
	}
	if c.SpikeMultiplier < 0 || c.SpikeMean < 0 || c.StuckDelay < 0 ||
		c.Timeout < 0 || c.KillAt < 0 {
		return errors.New("fault: negative duration or multiplier")
	}
	if c.KillAt > 0 && c.KillDisk < 0 {
		return fmt.Errorf("fault: KillDisk %d is negative", c.KillDisk)
	}
	return nil
}

// defaultStuckDelay is how long a stuck request wedges the disk when
// the configuration does not say: far beyond any sane timeout, so an
// un-timed-out stuck request is visibly pathological in the results.
const defaultStuckDelay = 60 * sim.Second

// Kind classifies what the injector did to one request.
type Kind int

// Fault kinds, in the order they are drawn.
const (
	// None: the request proceeds untouched.
	None Kind = iota
	// Transient: the request completes with a transient read error.
	Transient
	// Stuck: the request wedges for the stuck delay (the disk layer
	// converts this to a timeout error when a timeout is configured).
	Stuck
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Stuck:
		return "stuck"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Outcome is the injector's decision for one request.
type Outcome struct {
	Kind Kind
	// Spiked reports a latency spike, independent of Kind: the disk
	// multiplies the base service time by SpikeMultiplier and adds
	// Extra.
	Spiked bool
	// Extra is the additive tail of a spike (zero unless SpikeMean is
	// configured).
	Extra sim.Duration
	// StuckFor is how long a Stuck request holds the disk.
	StuckFor sim.Duration
}

// Injector draws fault outcomes from per-disk streams. One Injector
// serves one simulation; it is not safe for concurrent use (the kernel
// serializes all access, as everywhere in the simulator).
type Injector struct {
	cfg     Config
	streams []*rng.Source

	obs obs.Sink // nil = no observability (the common case)
}

// SetObserver installs an observability sink counting fault draws and
// the draws that injected an effect. Draws never consult the sink's
// state, so observation cannot perturb the streams.
func (i *Injector) SetObserver(s obs.Sink) { i.obs = s }

// Per-purpose stream id bases. Disk streams and retry-jitter streams
// must never collide with each other or with the engine's
// computation-delay streams (base 1000 in core).
const (
	diskStreamBase  = 1 << 20
	retryStreamBase = 1 << 21
)

// New returns an injector for the given number of disks. It panics on
// an invalid configuration — callers validate first.
func New(cfg Config, disks int) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.StuckRate > 0 && cfg.StuckDelay == 0 {
		cfg.StuckDelay = defaultStuckDelay
	}
	inj := &Injector{cfg: cfg, streams: make([]*rng.Source, disks)}
	for d := range inj.streams {
		inj.streams[d] = rng.New(cfg.Seed, diskStreamBase+uint64(d))
	}
	return inj
}

// Config returns the (defaulted) configuration driving the injector.
func (i *Injector) Config() Config { return i.cfg }

// Timeout returns the per-request service timeout (zero = none).
func (i *Injector) Timeout() sim.Duration { return i.cfg.Timeout }

// Kills reports whether — and when, and which — a disk dies.
func (i *Injector) Kills() (disk int, at sim.Duration, ok bool) {
	return i.cfg.KillDisk, i.cfg.KillAt, i.cfg.KillAt > 0
}

// Decide draws the fault outcome for the next request dispatched on
// the given disk. Exactly three uniforms are consumed per call (error,
// spike, stuck), plus one more for the spike tail when a spike with a
// positive SpikeMean occurs, so the per-disk stream stays aligned with
// the disk's dispatch sequence regardless of outcomes elsewhere.
func (i *Injector) Decide(disk int) Outcome {
	s := i.streams[disk]
	var out Outcome
	errDraw := s.Float64()
	spikeDraw := s.Float64()
	stuckDraw := s.Float64()
	if i.cfg.SpikeRate > 0 && spikeDraw < i.cfg.SpikeRate {
		out.Spiked = true
		if i.cfg.SpikeMean > 0 {
			out.Extra = sim.Millis(s.Exp(i.cfg.SpikeMean.Millis()))
		}
	}
	switch {
	case i.cfg.ReadErrorRate > 0 && errDraw < i.cfg.ReadErrorRate:
		out.Kind = Transient
	case i.cfg.StuckRate > 0 && stuckDraw < i.cfg.StuckRate:
		out.Kind = Stuck
		out.StuckFor = i.cfg.StuckDelay
	}
	if i.obs != nil {
		i.obs.Add(obs.CtrFaultDraws, 1)
		if out.Kind != None || out.Spiked {
			i.obs.Add(obs.CtrFaultsInjected, 1)
		}
	}
	return out
}

// SpikeMultiplier returns the service-time multiplier applied to
// spiked requests (1 when unconfigured). The disk layer applies it to
// the base service time so the seek model composes with spikes.
func (i *Injector) SpikeMultiplier() float64 {
	if i.cfg.SpikeMultiplier > 1 {
		return i.cfg.SpikeMultiplier
	}
	return 1
}

// RetryStream derives the independent jitter stream for one client
// node's retry backoff. Distinct from every disk stream, so adding a
// retry in one place never perturbs fault draws elsewhere.
func (i *Injector) RetryStream(node int) *rng.Source {
	return RetryJitterStream(i.cfg.Seed, node)
}

// RetryJitterStream derives one node's retry-backoff jitter stream
// from a raw seed, for callers that schedule disk deaths without a
// full Injector (failure-domain kills still need retryable reads).
func RetryJitterStream(seed uint64, node int) *rng.Source {
	return rng.New(seed, retryStreamBase+uint64(node))
}

// RetryPolicy is a capped-exponential-backoff retry schedule in
// virtual time. The zero value disables retries (a failed read
// surfaces immediately); consumers that inject faults should configure
// one, typically DefaultRetry.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per logical read (first try
	// included). Zero means unlimited: with fault rates below one and
	// degraded-mode remapping, progress is guaranteed, so the testbed
	// retries until the reference string completes.
	MaxAttempts int
	// Base is the first backoff; each subsequent retry doubles it.
	Base sim.Duration
	// Cap bounds the grown backoff (the "capped" in capped
	// exponential).
	Cap sim.Duration
}

// DefaultRetry returns the standard policy: unlimited attempts, 5 ms
// initial backoff doubling to a 160 ms cap — roughly one disk access
// at first, growing to a handful of accesses.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{Base: 5 * sim.Millisecond, Cap: 160 * sim.Millisecond}
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.Base > 0 }

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("fault: negative MaxAttempts %d", p.MaxAttempts)
	}
	if p.Base < 0 || p.Cap < 0 {
		return errors.New("fault: negative backoff duration")
	}
	if p.Base > 0 && p.Cap > 0 && p.Cap < p.Base {
		return fmt.Errorf("fault: backoff cap %v below base %v", p.Cap, p.Base)
	}
	return nil
}

// Exhausted reports whether the given 1-based attempt count has used
// up the policy.
func (p RetryPolicy) Exhausted(attempts int) bool {
	return p.MaxAttempts > 0 && attempts >= p.MaxAttempts
}

// Backoff returns the virtual-time delay before retry number `retry`
// (1 = first retry), with full jitter: uniform in (cap/2, cap] of the
// doubled-and-capped schedule, drawn from the caller's stream. Jitter
// decorrelates the retry storms of many clients that failed at the
// same instant while keeping every draw deterministic.
func (p RetryPolicy) Backoff(retry int, s *rng.Source) sim.Duration {
	if !p.Enabled() {
		return 0
	}
	if retry < 1 {
		retry = 1
	}
	d := p.Base
	for i := 1; i < retry; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	if s == nil {
		return d
	}
	half := d / 2
	return half + sim.Duration(s.Float64()*float64(d-half)) + 1
}
