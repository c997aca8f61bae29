package prefetch

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Scheduler drives the paper's idle-time prefetching (§III) for one
// processor without coroutine switches. While the processor is parked
// waiting for an event — its own demand fetch, another node's in-flight
// block, a barrier release — prefetch actions run as a chain of
// kernel-context continuations: each action's completion timer begins
// the next action directly, and the processor's coroutine is resumed
// exactly once, when the awaited event has fired and the action in
// flight (if any) has completed. The semantics are identical to a
// blocking loop of "try one action, advance the clock by its cost,
// re-check the event", but the per-action cost is a function call
// instead of two coroutine switches.
type Scheduler struct {
	k *sim.Kernel
	p *sim.Proc

	// begin starts one prefetch action in kernel context — selecting a
	// block, claiming a frame, submitting the I/O, charging the cost
	// model — and returns the action's duration. ok=false means no
	// action is possible right now (no candidate, limits exhausted, or
	// the remaining idle time is below the minimum-idle heuristic).
	begin func(deadline sim.Time) (d sim.Duration, ok bool)
	// finish completes the action begun last (releases the contention
	// tracker, records the action time).
	finish func()
	// gate, when set, is consulted before every action begins: false
	// throttles the attempt, so the wait simply parks on the event
	// instead of hunting for resources it cannot get. The engine
	// installs one under prefetch backpressure — when the prefetch
	// buffer class is exhausted, throttling turns the paper's overrun
	// pathology into bounded degradation. Nil (the default) gates
	// nothing.
	gate func() bool

	ev       *sim.Event
	deadline sim.Time
	ran      bool

	obs obs.Sink // nil = no observability (the common case)
}

// SetObserver installs an observability sink counting the idle waits
// this scheduler hosts. The actions themselves are spanned by the
// engine's begin/finish callbacks, which know what each action did.
func (s *Scheduler) SetObserver(sink obs.Sink) { s.obs = sink }

// NewScheduler returns an idle-time prefetch scheduler for process p.
func NewScheduler(k *sim.Kernel, p *sim.Proc, begin func(sim.Time) (sim.Duration, bool), finish func()) *Scheduler {
	return &Scheduler{k: k, p: p, begin: begin, finish: finish}
}

// SetGate installs a backpressure gate consulted before every action
// (see the gate field). A nil gate restores the ungated default.
func (s *Scheduler) SetGate(gate func() bool) { s.gate = gate }

// allowed reports whether the gate (if any) admits an action now.
func (s *Scheduler) allowed() bool { return s.gate == nil || s.gate() }

// Wait blocks the process until ev fires, filling the wait with
// prefetch actions. deadline is the caller's estimate of when the idle
// period ends (sim.MaxTime when unknown), passed through to begin. It
// reports whether at least one action ran — when true the process may
// resume after the event fired (prefetch overrun), and the caller
// derives the overrun from the gap between the resume time and
// ev.FiredAt(). The event must not have fired yet. Process context
// only; one Wait may be outstanding per Scheduler.
func (s *Scheduler) Wait(ev *sim.Event, deadline sim.Time) (ranAction bool) {
	s.ev, s.deadline, s.ran = ev, deadline, false
	if s.obs != nil {
		s.obs.Add(obs.CtrPrefetchWaits, 1)
	}
	if d, ok := s.beginGated(deadline); ok {
		s.ran = true
		s.k.AfterWake(d, s)
		s.p.Park(ev.Label())
	} else {
		ev.Wait(s.p)
	}
	s.ev = nil
	return s.ran
}

// beginGated begins an action unless the backpressure gate refuses.
func (s *Scheduler) beginGated(deadline sim.Time) (sim.Duration, bool) {
	if !s.allowed() {
		return 0, false
	}
	return s.begin(deadline)
}

// Wake is the action-completion continuation (sim.Waiter): it finishes
// the action in flight and decides, still in kernel context, what the
// parked process does next — resume (event fired), begin another
// action, or hand the wakeup to the event.
func (s *Scheduler) Wake() {
	s.finish()
	if s.ev.Fired() {
		s.k.Resume(s.p)
		return
	}
	if d, ok := s.beginGated(s.deadline); ok {
		s.k.AfterWake(d, s)
		return
	}
	// Nothing to prefetch: the process stays parked until the event
	// fires. begin cannot have fired the event (it only submits I/O),
	// so the enqueue cannot race with the firing instant.
	s.ev.Enqueue(s.p)
}
