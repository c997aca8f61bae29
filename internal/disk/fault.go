package disk

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Typed request errors. A request's Err wraps exactly one of these;
// callers classify with errors.Is. The pre-fault disk never produced
// errors (and still never does when no injector is attached), so every
// error here is the fault model speaking.
var (
	// ErrTransient: the transfer occupied the disk for its full
	// service time, then failed. Retryable — the next attempt draws a
	// fresh fault decision.
	ErrTransient = errors.New("transient read error")
	// ErrTimeout: the request's service exceeded the configured
	// timeout and was abandoned at the timeout instant, freeing the
	// disk. Retryable.
	ErrTimeout = errors.New("request timed out")
	// ErrDead: the disk died before or during the request. Not
	// retryable on the same disk — callers remap to a survivor.
	ErrDead = errors.New("disk dead")
)

// FetchError returns the request's completion error (nil on success).
// It implements the cache's ErrorSource, so a fill begun against this
// request propagates the failure to every waiter instead of
// deadlocking them.
func (r *Request) FetchError() error { return r.Err }

// FaultStats counts injected faults as the disk observed them.
type FaultStats struct {
	// Transient counts requests completed with ErrTransient.
	Transient int64
	// Spikes counts requests whose service time was inflated.
	Spikes int64
	// Stuck counts requests that wedged (whether or not a timeout
	// later released them).
	Stuck int64
	// Timeouts counts requests abandoned at the service timeout.
	Timeouts int64
	// DeadFailed counts requests failed because the disk was (or
	// went) dead: pending requests flushed by the kill plus every
	// submission refused afterwards.
	DeadFailed int64
	// Stormed counts requests whose service was stretched by a
	// domain-wide latency storm (fault.DomainConfig).
	Stormed int64
}

// Add accumulates other into s.
func (s *FaultStats) Add(other FaultStats) {
	s.Transient += other.Transient
	s.Spikes += other.Spikes
	s.Stuck += other.Stuck
	s.Timeouts += other.Timeouts
	s.DeadFailed += other.DeadFailed
	s.Stormed += other.Stormed
}

// Total returns the total number of injected fault effects.
func (s FaultStats) Total() int64 {
	return s.Transient + s.Spikes + s.Stuck + s.Timeouts + s.DeadFailed + s.Stormed
}

// SetFaults attaches a fault injector: every subsequent dispatch
// consults it. With no injector (the default) the disk takes the exact
// pre-fault code path.
func (d *Disk) SetFaults(inj *fault.Injector) { d.inj = inj }

// Alive reports whether the disk is still serving requests.
func (d *Disk) Alive() bool { return !d.dead }

// FaultStats returns the disk's injected-fault counters.
func (d *Disk) FaultStats() FaultStats { return d.fstats }

// applyFaults draws the fault outcome for a dispatching request and
// returns its adjusted service time, setting req.Err for requests that
// will complete unsuccessfully. Called only when an injector is
// attached.
func (d *Disk) applyFaults(req *Request, service sim.Duration) sim.Duration {
	out := d.inj.Decide(d.id)
	if out.Spiked {
		d.fstats.Spikes++
		service = sim.Duration(float64(service)*d.inj.SpikeMultiplier()) + out.Extra
	}
	switch out.Kind {
	case fault.Transient:
		d.fstats.Transient++
		req.Err = fmt.Errorf("disk %d: %w", d.id, ErrTransient)
	case fault.Stuck:
		d.fstats.Stuck++
		if out.StuckFor > service {
			service = out.StuckFor
		}
	}
	// The watchdog arms at dispatch: a request whose (faulted) service
	// would exceed the timeout is abandoned at the timeout instant —
	// this is how a stuck request is "served only after a timeout
	// fires" without wedging the disk for the full stuck delay.
	if t := d.inj.Timeout(); t > 0 && service > t {
		d.fstats.Timeouts++
		service = t
		req.Err = fmt.Errorf("disk %d: %w", d.id, ErrTimeout)
	}
	return service
}

// kill takes the disk permanently offline: the request in service (if
// any) completes at its scheduled time with ErrDead, all queued
// requests fail immediately, and every later Submit fails on arrival.
func (d *Disk) kill() {
	if d.dead {
		return
	}
	d.dead = true
	if d.current != nil {
		d.current.Err = fmt.Errorf("disk %d: %w", d.id, ErrDead)
		d.fstats.DeadFailed++
	}
	now := d.k.Now()
	pending := d.pending
	d.pending = nil
	for _, req := range pending {
		req.Err = fmt.Errorf("disk %d: %w", d.id, ErrDead)
		req.Started = now
		req.Done = now
		d.fstats.DeadFailed++
		req.Complete.Fire()
	}
}

// submitDead refuses a request on a dead disk: the request completes
// synchronously with ErrDead (its Complete event is already fired when
// Submit returns, so waiters registered afterwards wake immediately).
func (d *Disk) submitDead(block, phys int, prefetch bool) *Request {
	now := d.k.Now()
	req := &Request{
		Disk:     d.id,
		Block:    block,
		Physical: phys,
		Prefetch: prefetch,
		Enqueued: now,
		Started:  now,
		Done:     now,
		EstDone:  now,
		owner:    d,
		Err:      fmt.Errorf("disk %d: %w", d.id, ErrDead),
	}
	req.Complete.Init(d.k, "disk I/O completion")
	d.fstats.DeadFailed++
	req.Complete.Fire()
	return req
}

// SetFaults attaches a fault injector to every disk in the array and,
// if the configuration kills a disk, schedules the death at its
// virtual time. A nil injector is a no-op.
func (a *Array) SetFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	for _, d := range a.disks {
		d.inj = inj
	}
	if kd, at, ok := inj.Kills(); ok && kd < len(a.disks) {
		victim := a.disks[kd]
		victim.k.Schedule(sim.Time(at), victim.kill)
	}
}

// ScheduleKill schedules disk i's permanent death at the given
// virtual time, independent of any injector — this is how correlated
// failure-domain kills take a whole rack's disks down at one instant.
// The kill itself is idempotent, so combining a domain kill with an
// injector's KillAt on the same disk is harmless.
func (a *Array) ScheduleKill(i int, at sim.Duration) {
	victim := a.disks[i]
	victim.k.Schedule(sim.Time(at), victim.kill)
}

// SetStorm arms a latency-storm window on disk i: requests dispatched
// in [start, end) take factor times their normal service time. Must be
// called before the run starts (the window is read-only afterwards).
func (a *Array) SetStorm(i int, start, end sim.Duration, factor float64) {
	d := a.disks[i]
	d.stormStart = sim.Time(start)
	d.stormEnd = sim.Time(end)
	d.stormFactor = factor
}

// Alive reports whether disk i is still serving requests.
func (a *Array) Alive(i int) bool { return a.disks[i].Alive() }

// AliveCount returns how many disks are still serving requests.
func (a *Array) AliveCount() int {
	n := 0
	for _, d := range a.disks {
		if d.Alive() {
			n++
		}
	}
	return n
}

// FaultStats aggregates injected-fault counters across all disks.
func (a *Array) FaultStats() FaultStats {
	var s FaultStats
	for _, d := range a.disks {
		s.Add(d.fstats)
	}
	return s
}
